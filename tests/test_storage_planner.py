"""Cost-based planner: plan choice, ordered/composite/covering indexes.

Every plan-shape test cross-checks the costed path against the forced
scan (``without_indexes``) on the same query — the planner may only
change *how* rows are found, never *which* rows.
"""

from __future__ import annotations

import datetime as dt
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.types import sort_key


def _events_schema() -> TableSchema:
    return TableSchema(
        name="event",
        columns=[
            Column("id", ColumnType.INT, primary_key=True),
            Column("project", ColumnType.INT, nullable=False),
            Column("kind", ColumnType.TEXT, nullable=False),
            Column("batch", ColumnType.INT, nullable=False),
            Column("score", ColumnType.INT),
            Column("payload", ColumnType.TEXT),
        ],
        indexes=["project", "kind", "batch"],
        ordered=["score", ("project", "score")],
    )


@pytest.fixture
def events_db() -> Database:
    db = Database()
    db.create_table(_events_schema())
    with db.transaction() as txn:
        for i in range(400):
            txn.insert(
                "event",
                {
                    "id": i,
                    "project": i % 20,
                    "kind": ("import", "export", "qc", "run")[i % 4],
                    "batch": i % 25,
                    "score": None if i % 50 == 49 else i,
                    "payload": f"row {i}",
                },
            )
    return db


def _rows(query):
    return sorted(r["id"] for r in query.all())


# -- index-level satellites ------------------------------------------------


class TestIndexCounters:
    def test_hash_len_counts_entries(self):
        index = HashIndex("t", ("c",))
        for pk in range(5):
            index.add({"c": pk % 2}, pk)
        assert len(index) == 5
        index.remove({"c": 0}, 0)
        assert len(index) == 4
        assert index.distinct_keys() == 2

    def test_sorted_len_counts_entries(self):
        index = OrderedIndex("t", ("c",))
        for pk in range(6):
            index.add({"c": pk % 3}, pk)
        assert len(index) == 6
        index.remove({"c": 1}, 1)
        assert len(index) == 5
        index.clear()
        assert len(index) == 0

    def test_remove_then_range_sees_consistent_state(self):
        # Regression: remove() must drop the sorted key and the pk
        # bucket under the same bisect position — a torn remove left a
        # stale key behind that a following range read resurrected.
        index = OrderedIndex("t", ("c",))
        for pk in range(4):
            index.add({"c": 10}, pk)
        index.add({"c": 20}, 99)
        index.remove({"c": 10}, 2)
        assert set(index.range_pks(low=10, high=10)) == {0, 1, 3}
        for pk in (0, 1, 3):
            index.remove({"c": 10}, pk)
        # Key 10 fully gone: neither ranges nor ordered iteration may
        # see it.
        assert set(index.range_pks(low=5, high=15)) == set()
        assert list(index.range_pks()) == [99]
        assert index.min_key() == (20,)

    def test_composite_covers(self):
        index = OrderedIndex("t", ("a", "b"))
        assert index.covers(["a"])
        assert index.covers(["a", "b"])
        assert not index.covers(["a", "c"])


# -- plan selection --------------------------------------------------------


class TestPlanChoice:
    def test_range_uses_ordered_index(self, events_db):
        query = (
            events_db.query("event")
            .where("score", ">=", 100)
            .where("score", "<", 120)
        )
        plan = query.explain()
        assert plan["strategy"] == "range:sx_event_score"
        assert _rows(query) == _rows(query.without_indexes())

    def test_composite_prefix_seek(self, events_db):
        query = (
            events_db.query("event")
            .where("project", "=", 3)
            .where("score", ">=", 200)
        )
        plan = query.explain(analyze=True)
        assert plan["strategy"] == "prefix:ox_event_project_score"
        assert plan["residual_predicates"] == 0
        assert plan["actual_rows"] == len(query.all())
        assert _rows(query) == _rows(query.without_indexes())

    def test_covering_requires_projection(self, events_db):
        base = (
            events_db.query("event")
            .where("project", "=", 3)
            .where("score", ">=", 200)
        )
        covered = (
            events_db.query("event")
            .select("project", "score")
            .where("project", "=", 3)
            .where("score", ">=", 200)
        )
        assert base.explain()["covering"] is False
        plan = covered.explain()
        assert plan["strategy"] == "covering:ox_event_project_score"
        assert plan["covering"] is True
        rows = covered.all()
        assert rows
        # Synthesized from index entries: projection plus the pk.
        assert all(set(r) == {"project", "score", "id"} for r in rows)
        assert sorted(r["id"] for r in rows) == _rows(base)

    def test_intersection_of_hash_indexes(self, events_db):
        # Each single bucket holds 20 / 16 rows, the conjunction only
        # one: merging the two pk sets is cheaper than fetching either
        # bucket and filtering.
        query = (
            events_db.query("event")
            .where("project", "=", 3)
            .where("batch", "=", 3)
        )
        plan = query.explain()
        assert plan["strategy"].startswith("intersect:")
        assert _rows(query) == _rows(query.without_indexes())

    def test_alternatives_are_priced(self, events_db):
        plan = (
            events_db.query("event").where("project", "=", 3).explain()
        )
        strategies = {alt["strategy"] for alt in plan["alternatives"]}
        assert "scan" in strategies
        assert plan["strategy"] not in strategies
        assert all(
            isinstance(alt["cost"], (int, float))
            for alt in plan["alternatives"]
        )

    def test_estimates_track_actuals(self, events_db):
        plan = (
            events_db.query("event")
            .where("score", ">=", 100)
            .where("score", "<", 120)
            .explain(analyze=True)
        )
        assert plan["actual_rows"] == 20
        assert abs(plan["estimated_rows"] - plan["actual_rows"]) <= 5

    @pytest.mark.parametrize(
        "column, values, strategy",
        [
            ("project", [3, 5, None], "in:sx_event_project"),
            ("project", [], "in:sx_event_project"),
            ("score", [1, True, 1.0, "1"], "in:sx_event_score"),
            ("score", list(range(380)), "scan"),
            ("payload", ["row 1", "row 2"], "scan"),
        ],
    )
    def test_in_list_probes_an_index(self, events_db, column, values, strategy):
        query = events_db.query("event").where(column, "in", values)
        assert query.explain()["strategy"] == strategy
        assert query.pks() == query.without_indexes().pks()
        with events_db.snapshot() as snap:
            pinned = snap.query("event").where(column, "in", values)
            assert pinned.explain()["strategy"] == strategy
            assert pinned.pks() == query.pks()

    def test_in_list_probes_a_unique_index(self):
        db = Database()
        db.create_table(
            TableSchema(
                "tag",
                [
                    Column("id", ColumnType.INT, primary_key=True),
                    Column("code", ColumnType.TEXT, unique=True),
                ],
            )
        )
        for i in range(200):
            db.insert("tag", {"code": f"c{i}"})
        query = db.query("tag").where("code", "in", ["c7", "c3", "nope", None])
        assert query.explain()["strategy"] == "in:uq_tag_code"
        assert query.pks() == [4, 8]

    def test_scan_when_no_index_applies(self, events_db):
        plan = (
            events_db.query("event").where("payload", "contains", "7").explain()
        )
        assert plan["strategy"] == "scan"

    def test_null_scores_excluded_from_upper_bound(self, events_db):
        # score < X must not leak NULL-score rows even though NULL keys
        # sort first in the ordered index (SQL three-valued logic).
        query = events_db.query("event").where("score", "<", 30)
        assert query.explain()["strategy"] == "range:sx_event_score"
        ids = _rows(query)
        assert ids == _rows(query.without_indexes())
        assert 49 not in ids  # the first NULL-score row

    def test_database_add_index_ordered(self, events_db):
        events_db.add_index("event", ("kind", "score"), ordered=True)
        query = (
            events_db.query("event")
            .where("kind", "=", "qc")
            .where("score", ">", 300)
        )
        assert query.explain()["strategy"] == "prefix:ox_event_kind_score"
        assert _rows(query) == _rows(query.without_indexes())

    def test_schema_rejects_unknown_ordered_column(self):
        with pytest.raises(SchemaError):
            TableSchema(
                name="bad",
                columns=[Column("id", ColumnType.INT, primary_key=True)],
                ordered=["missing"],
            ).validate()


# -- ordering and LIMIT ----------------------------------------------------


class TestOrderAndLimit:
    def test_order_rides_sorted_index(self, events_db):
        query = events_db.query("event").order_by("score").limit(5)
        plan = query.explain()
        assert plan["strategy"] == "order:sx_event_score"
        assert plan["early_exit"] is True
        scan = (
            events_db.query("event").order_by("score").limit(5).without_indexes()
        )
        assert [r["id"] for r in query.all()] == [r["id"] for r in scan.all()]

    def test_descending_order_ride(self, events_db):
        query = (
            events_db.query("event")
            .where("score", ">=", 0)
            .order_by("score", descending=True)
            .limit(3)
        )
        plan = query.explain()
        assert plan["early_exit"] is True
        assert [r["score"] for r in query.all()] == [398, 397, 396]

    def test_limit_early_exit_matches_sorted_scan(self, events_db):
        query = (
            events_db.query("event")
            .where("score", ">=", 50)
            .order_by("score")
            .limit(7)
            .offset(2)
        )
        assert query.explain()["early_exit"] is True
        scan = (
            events_db.query("event")
            .where("score", ">=", 50)
            .order_by("score")
            .limit(7)
            .offset(2)
            .without_indexes()
        )
        assert [r["id"] for r in query.all()] == [r["id"] for r in scan.all()]

    def test_bare_ride_only_offered_when_order_satisfied(self, events_db):
        # ORDER BY an unindexed column: no index produces that order,
        # so no "order:" ride may be planned just to shave scan setup.
        plan = (
            events_db.query("event").order_by("payload").limit(5).explain()
        )
        assert plan["strategy"] == "scan"
        assert not any(
            alt["strategy"].startswith("order:")
            for alt in plan["alternatives"]
        )

    def test_unsatisfied_order_disables_early_exit(self, events_db):
        plan = (
            events_db.query("event")
            .where("project", "=", 3)
            .order_by("payload")
            .limit(5)
            .explain()
        )
        assert plan["early_exit"] is False


    @pytest.mark.parametrize("op", [">=", ">", "<", "<="])
    def test_range_limit_prices_its_range_once(self, monkeypatch, op):
        """A range + LIMIT miss (engine_mixed's range_limit shape) does
        not probe the ordered index at all: the seek beats the scan for
        every value, so it is the shape's one survivor and runs
        unpriced.  Where a rival survives beside it (an ``IN`` on the
        same column), the rival's selectivity and the seek share one
        estimate within the planning call."""
        db = Database(query_cache_size=0)
        db.create_table(
            TableSchema(
                "workunit",
                [
                    Column("id", ColumnType.INT, primary_key=True),
                    Column("name", ColumnType.TEXT, nullable=False),
                ],
                indexes=["name"],
            )
        )
        with db.transaction() as txn:
            for i in range(60):
                txn.insert("workunit", {"name": f"wu {i:03d}"})
        calls = []
        estimate = OrderedIndex.estimate_range

        def counting(index, *args, **kwargs):
            calls.append(args)
            return estimate(index, *args, **kwargs)

        def shape():
            return (
                db.query("workunit")
                .where("name", op, "wu 030")
                .order_by("name")
                .limit(10)
            )

        query = shape()
        report = query.explain()
        monkeypatch.setattr(OrderedIndex, "estimate_range", counting)
        rows = query.all()
        assert calls == []
        assert rows == shape().without_indexes().all()
        # explain() still prices every rival afresh, to the same figures.
        assert query.explain() == report
        assert report["strategy"] == "range:sx_workunit_name"
        assert [alt["strategy"] for alt in report["alternatives"]] == ["scan"]

        names = [f"wu {i:03d}" for i in range(0, 60, 3)]

        def both():
            return db.query("workunit").where("name", "in", names).where(
                "name", op, "wu 030"
            )

        assert {p.kind for p in both()._candidate_plans(False)} == {
            "in", "seek", "scan"
        }
        calls.clear()
        rows = _rows(both())
        assert len(calls) == 1
        assert rows == _rows(both().without_indexes())


# -- statistics ------------------------------------------------------------


class TestStatistics:
    def test_dates_are_sampled_as_iso_text(self):
        """A reservoir slot holds a date or datetime as the ISO text
        checkpoints store, not its ``repr``."""
        from repro.storage.stats import ColumnStats

        stats = ColumnStats("created")
        for value in (
            dt.datetime(2010, 1, 14, 9, 3, 2),
            dt.date(2010, 1, 1),
            dt.datetime(2010, 1, 1, tzinfo=dt.timezone.utc),
            7,
        ):
            stats.on_insert(value)
        assert stats.state()["reservoir"] == [
            "datetime:2010-01-14T09:03:02",
            "date:2010-01-01",
            "datetime:2010-01-01T00:00:00+00:00",
            "int:7",
        ]

    def test_distinct_counts(self, events_db):
        table = events_db.table("event")
        assert table.distinct_count("project") == 20
        assert table.distinct_count("kind") == 4
        low, high = table.column_min_max("score")
        assert low is None  # NULL keys sort first in the ordered index
        assert high == 398  # 399 is a NULL-score row

    def test_stats_follow_mutations(self, events_db):
        table = events_db.table("event")
        assert table.distinct_count("kind") == 4
        events_db.update("event", 0, {"kind": "audit"})
        assert table.distinct_count("kind") == 5
        events_db.delete("event", 0)
        assert table.distinct_count("kind") == 4

    def test_stats_survive_wal_recovery(self, tmp_path):
        path = tmp_path / "data"
        db = Database(path, durability="always")
        db.create_table(_events_schema())
        with db.transaction() as txn:
            for i in range(120):
                txn.insert(
                    "event",
                    {"id": i, "project": i % 7, "kind": "import",
                     "batch": i % 5, "score": i, "payload": "p"},
                )
        db.checkpoint()
        # Post-checkpoint traffic must be replayed into the restored
        # sampler state, not a freshly reseeded one.
        with db.transaction() as txn:
            for i in range(120, 150):
                txn.insert(
                    "event",
                    {"id": i, "project": i % 7, "kind": "export",
                     "batch": i % 5, "score": i, "payload": "p"},
                )
        before = db.table("event").stats_state()
        strategy = (
            db.query("event")
            .where("score", ">=", 10)
            .where("score", "<", 20)
            .explain()["strategy"]
        )
        db.close()

        reopened = Database(path, durability="always")
        reopened.create_table(_events_schema())
        reopened.recover()
        table = reopened.table("event")
        assert table.stats_state() == before
        assert table.distinct_count("project") == 7
        assert (
            reopened.query("event")
            .where("score", ">=", 10)
            .where("score", "<", 20)
            .explain()["strategy"]
            == strategy
        )
        reopened.close()


# -- explain provenance ----------------------------------------------------


class TestExplainProvenance:
    def test_live_snapshot_and_sharded_explain(self, events_db):
        # A range explain reports one costed plan over the one table,
        # the same whether asked live or from a fresh snapshot.
        def explain(source):
            return (
                source.query("event")
                .where("score", ">=", 10)
                .where("score", "<", 30)
                .explain()
            )

        live = explain(events_db)
        assert live["strategy"] == "range:sx_event_score"
        assert live["estimated_rows"] > 0
        assert live["estimated_cost"] > 0
        assert "shards" not in live and "shards_consulted" not in live
        with events_db.snapshot() as snap:
            pinned = explain(snap)
            assert pinned["strategy"] == live["strategy"]
            assert pinned["estimated_rows"] == live["estimated_rows"]

    def test_snapshot_pins_costed_plan(self, events_db):
        with events_db.snapshot() as snap:
            live = (
                events_db.query("event").where("project", "=", 3).explain()
            )
            pinned = snap.query("event").where("project", "=", 3).explain()
            # Fresh snapshot: same costed plan, same cache key.
            assert pinned["strategy"] == live["strategy"]
            assert pinned["cache_key"] == live["cache_key"]
            assert pinned["snapshot_version"] == snap.seq
            rows = _rows(snap.query("event").where("project", "=", 3))
            # The pinned plan stays correct after later commits.
            events_db.insert(
                "event",
                {"id": 1000, "project": 3, "kind": "qc",
                 "batch": 0, "score": 1, "payload": "new"},
            )
            assert _rows(snap.query("event").where("project", "=", 3)) == rows
            # A query planned *after* the commit sees a moved table and
            # falls back to the snapshot-safe scan.
            stale = snap.query("event").where("project", "=", 3).explain()
            assert stale["strategy"] == "scan"


# -- plan equivalence on the hot shapes ------------------------------------


def _hot_shapes(source):
    """The ``engine_mixed`` read shapes, plus pk-equality corner cases;
    *source* is a database or a snapshot."""
    return {
        "pk_query": lambda: source.query("event").where("id", "=", 7),
        "hot_set": lambda: source.query("event").where("id", "=", 8),
        "pk_miss": lambda: source.query("event").where("id", "=", 40_000),
        "indexed_eq": lambda: source.query("event").where("project", "=", 3),
        "range_limit": lambda: (
            source.query("event").where("score", ">=", 100)
            .order_by("score").limit(10)
        ),
        "pk_residual_hit": lambda: (
            source.query("event").where("id", "=", 7).where("kind", "=", "run")
        ),
        "pk_residual_miss": lambda: (
            source.query("event").where("id", "=", 7).where("kind", "=", "qc")
        ),
        "pk_null": lambda: source.query("event").where("id", "=", None),
        "pk_twice": lambda: (
            source.query("event").where("id", "=", 7).where("id", "=", 8)
        ),
        # IN over an indexed column: probed member by member.
        "in_indexed": lambda: source.query("event").where("project", "in", [3, 5]),
        "in_with_null": lambda: (
            source.query("event").where("score", "in", [None, 7, 49, 103])
        ),
        "in_equal_numbers": lambda: (
            source.query("event").where("project", "in", (1, True, 1.0))
        ),
        "in_empty": lambda: source.query("event").where("project", "in", []),
        "in_other_family": lambda: (
            source.query("event").where("kind", "in", [3, None, "qc"])
        ),
        "in_residual": lambda: (
            source.query("event").where("project", "in", {3, 4})
            .where("kind", "=", "run")
        ),
        "in_most_of_table": lambda: (
            source.query("event").where("score", "in", list(range(380)))
        ),
    }


def _by_id(rows):
    return sorted(rows, key=lambda r: r["id"])


class TestPlanEquivalence:
    def _check(self, source):
        """Chosen plan == forced scan, on a cache miss and on the hit
        after it; returns the answers."""
        answers = {}
        for name, shape in _hot_shapes(source).items():
            expected = shape().without_indexes().all()
            for attempt in ("miss", "hit"):
                rows = shape().all()
                if name == "range_limit":  # the only ordered shape
                    assert rows == expected, (name, attempt)
                else:
                    assert _by_id(rows) == _by_id(expected), (name, attempt)
            assert shape().count() == shape().without_indexes().count(), name
            answers[name] = rows if name == "range_limit" else _by_id(rows)
        return answers

    def test_live_plans_return_what_a_scan_returns(self, events_db):
        answers = self._check(events_db)
        row = events_db.get("event", 7)
        assert answers["pk_query"] == answers["pk_residual_hit"] == [row]
        assert len(answers["indexed_eq"]) == 20
        assert [r["id"] for r in answers["range_limit"]] == list(range(100, 110))
        for empty in ("pk_miss", "pk_residual_miss", "pk_null", "pk_twice", "in_empty"):
            assert answers[empty] == []
        assert len(answers["in_indexed"]) == 40
        assert [r["id"] for r in answers["in_with_null"]] == [7, 103]
        assert len(answers["in_equal_numbers"]) == 20
        assert len(answers["in_other_family"]) == 100
        assert len(answers["in_most_of_table"]) == 373

    def test_snapshot_plans_return_what_a_scan_returns(self, events_db):
        live = self._check(events_db)
        with events_db.snapshot() as snap:
            assert self._check(snap) == live  # index plans, pinned
            events_db.update("event", 7, {"kind": "qc", "project": 3})
            events_db.delete("event", 103)
            events_db.insert(
                "event",
                {"id": 40_000, "project": 3, "kind": "run", "batch": 1,
                 "score": 101, "payload": "late"},
            )
            stale = snap.query("event").where("id", "=", 7).explain()
            assert stale["strategy"] == "scan"  # the table moved on
            assert self._check(snap) == live
        moved = self._check(events_db)
        assert moved["pk_residual_hit"] == [] and len(moved["pk_miss"]) == 1
        assert len(moved["indexed_eq"]) == 21  # +7, +40000, -103
        assert 103 not in [r["id"] for r in moved["range_limit"]]


class TestPkShortCircuit:
    def test_explain_still_lists_priced_alternatives(self, events_db):
        events_db.add_index("event", "id", ordered=True)
        query = events_db.query("event").where("id", "=", 7).where("project", "=", 7)
        plan = query.explain()
        assert plan["strategy"] == "pk"
        assert plan["candidates"] == 1 and plan["residual_predicates"] == 1
        strategies = [alt["strategy"] for alt in plan["alternatives"]]
        assert "pk" not in strategies
        assert {"scan", "index:sx_event_project"} <= set(strategies)
        assert any(s.startswith("prefix:") for s in strategies)
        costs = [alt["cost"] for alt in plan["alternatives"]]
        assert costs == sorted(costs) and all(c > 0 for c in costs)
        assert isinstance(plan["fingerprint"], str) and len(plan["fingerprint"]) == 12
        assert plan["cache_key"] == {
            "table": "event",
            "version": events_db.table("event").version,
            "kind": "rows",
            "fingerprint": query.fingerprint(),
        }

    def test_pk_equality_prices_nothing_else(self, events_db, monkeypatch):
        from repro.storage.query import Query

        def forbidden(self, *args, **kwargs):
            raise AssertionError("a pk equality enumerated alternatives")

        monkeypatch.setattr(Query, "_candidate_plans", forbidden)
        assert events_db.query("event").where("id", "=", 7).all() == [
            events_db.get("event", 7)
        ]
        assert events_db.query("event").where("id", "=", 7).where(
            "kind", "=", "qc"
        ).count() == 0
        with events_db.snapshot() as snap:
            assert snap.query("event").where("id", "=", 9).all() == [
                events_db.get("event", 9)
            ]

    def test_explain_does_not_populate_the_cache(self, events_db):
        query = events_db.query("event").where("id", "=", 7)
        first, second = query.explain(), query.explain()
        assert first["cache"] == second["cache"] == "miss"
        assert len(events_db.query_cache) == 0
        assert events_db.query_cache.statistics()["lookups"] == {}
        query.all()
        assert query.explain()["cache"] == "hit"

    def test_forced_scan_and_degraded_snapshot_list_no_alternatives(self, events_db):
        forced = events_db.query("event").where("id", "=", 7).without_indexes()
        assert forced.explain()["alternatives"] == []
        with events_db.snapshot() as snap:
            events_db.update("event", 7, {"kind": "qc"})
            stale = snap.query("event").where("id", "=", 7).explain()
            assert stale["strategy"] == "scan" and stale["alternatives"] == []


# -- index equality follows == ---------------------------------------------


def _flags_db(*, single: bool) -> Database:
    """A BOOL and an INT column, each indexed on its own (*single*) or
    leading a composite ordered index."""
    db = Database()
    db.create_table(
        TableSchema(
            name="t",
            columns=[
                Column("id", ColumnType.INT, primary_key=True),
                Column("flag", ColumnType.BOOL, nullable=False),
                Column("n", ColumnType.INT, nullable=False),
                Column("score", ColumnType.INT, nullable=False),
            ],
            indexes=["flag", "n"] if single else [],
            ordered=[] if single else [("flag", "score"), ("n", "score")],
        )
    )
    with db.transaction() as txn:
        for i in range(49):
            txn.insert("t", {"id": i, "flag": i % 2 == 1, "n": i % 3, "score": i})
    return db


class TestEqualityFollowsPythonEquality:
    """``True == 1 == 1.0``: a probe or prefix seek must find the rows a
    scan finds for a query value of another type that compares equal."""

    SHAPES = {
        "equality": lambda q, c, v: q.where(c, "=", v),
        "equality+range": lambda q, c, v: q.where(c, "=", v).where("score", ">=", 10),
        "equality+order+limit": lambda q, c, v: (
            q.where(c, "=", v).order_by("score").limit(5)
        ),
    }

    @pytest.mark.parametrize("single", [True, False], ids=["single", "composite"])
    @pytest.mark.parametrize("column", ["flag", "n"])
    @pytest.mark.parametrize("value", [True, 1, 1.0], ids=["True", "1", "1.0"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_index_answers_what_a_scan_answers(self, single, column, value, shape):
        db = _flags_db(single=single)
        make = self.SHAPES[shape]
        query = make(db.query("t"), column, value)
        assert query.explain()["strategy"] != "scan"
        expected = make(db.query("t"), column, value).without_indexes().all()
        assert len(expected) >= 5
        assert query.all() == expected
        with db.snapshot() as snap:
            pinned = make(snap.query("t"), column, value)
            assert pinned.explain()["strategy"] != "scan"
            assert pinned.all() == expected


#: JSON values equal by ``==`` across bool, int and float, nested in
#: lists and dicts, beside values that differ from them.
JSON_VALUES = [
    [1], [True], [1.0], [0], [False], [0.5],
    [[1, 2.0]], [[True, 2]], [[1.0, 3]],
    {"a": 1}, {"a": True}, {"a": 1.5},
    {"a": [1.0, {"b": False}]}, {"a": [1, {"b": 0}]}, {"a": [True, {"b": 0.0}]},
    {"a": [1, {"b": 1}]}, [], {},
]


def _json_db() -> Database:
    db = Database(query_cache_size=0)
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("j", ColumnType.JSON),
            ],
            indexes=["j"],
        )
    )
    with db.transaction() as txn:
        for i, value in enumerate(JSON_VALUES * 2 + [None]):
            txn.insert("t", {"id": i, "j": value})
    return db


class TestJsonKeysFollowPythonEquality:
    """``[1] == [True] == [1.0]``: an index probe on a JSON column finds
    the rows a scan finds, however deep the bool or float sits."""

    SHAPES = {
        "equality": lambda q, v: q.where("j", "=", v),
        "equality+order+limit": lambda q, v: (
            q.where("j", "=", v).order_by("id", descending=True).limit(3)
        ),
        "range": lambda q, v: q.where("j", ">=", v).where("j", "<=", v),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("value", JSON_VALUES, ids=repr)
    def test_index_answers_what_a_scan_answers(self, shape, value):
        db = _json_db()
        make = self.SHAPES[shape]
        query = make(db.query("t"), value)
        assert query.explain()["strategy"] != "scan"
        expected = make(db.query("t"), value).without_indexes().all()
        assert expected and all(row["j"] == value for row in expected)
        assert query.all() == expected
        with db.snapshot() as snap:
            pinned = make(snap.query("t"), value)
            assert pinned.explain()["strategy"] != "scan"
            assert pinned.all() == expected
            db.insert("t", {"id": 999, "j": value})
            assert make(snap.query("t"), value).all() == expected

    #: Values no JSON column stores (it keeps lists, not tuples, and
    #: ``str`` keys), most dumping like a stored value they do not
    #: equal: ``(1,) != [1]``.
    FOREIGN = [
        (1,), ((1, 2.0),), ([True, 2],), {"a": (1.0, {"b": False})},
        {1: "a", "b": 2},
    ]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("value", FOREIGN, ids=repr)
    def test_a_value_no_column_stores_finds_nothing(self, shape, value):
        db = _json_db()
        make = self.SHAPES[shape]
        query = make(db.query("t"), value)
        assert query.explain()["strategy"] != "scan"
        assert make(db.query("t"), value).without_indexes().all() == []
        assert query.all() == []
        with db.snapshot() as snap:
            assert make(snap.query("t"), value).all() == []


# -- every priced plan equals a scan; the memo chooses what min() does -----


def _oracle_db() -> Database:
    """Skewed buckets (70 % of rows under ``a = 0``), a composite hash
    and a composite ordered index for prefixes, a unique column, NULLs."""
    db = Database(query_cache_size=0)
    db.create_table(
        TableSchema(
            "item",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("a", ColumnType.INT, nullable=False),
                Column("b", ColumnType.TEXT),
                Column("c", ColumnType.INT),
                Column("u", ColumnType.TEXT, unique=True),
            ],
            indexes=["a", "b", ("a", "b")],
            ordered=["c", ("a", "c")],
        )
    )
    with db.transaction() as txn:
        for i in range(1, 121):
            txn.insert(
                "item",
                {
                    "id": i,
                    "a": 0 if i % 10 < 7 else i % 7,
                    "b": None if i % 11 == 0 else "xyz"[i % 3],
                    "c": None if i % 9 == 0 else (i * 7) % 50,
                    "u": None if i % 13 == 0 else f"u{i:03d}",
                },
            )
    return db


_ORACLE_VALUES = {
    "id": st.integers(-1, 125),
    "a": st.sampled_from([0, 1, 2, 3, 6, 9]),
    "b": st.sampled_from(["x", "y", "z", "w"]),
    "c": st.integers(-3, 53),
    "u": st.sampled_from(["u001", "u050", "u777", "u104"]),
}


def _condition(column):
    value = _ORACLE_VALUES[column]
    members = st.lists(st.one_of(value, st.none()), max_size=5)
    if column == "c":  # long enough for the scan to beat the probes
        members |= st.integers(0, 160).map(lambda n: list(range(-2, n)))
    return st.one_of(
        st.tuples(
            st.just(column),
            st.sampled_from(["=", "=", "<", "<=", ">", ">=", "!="]),
            st.one_of(value, st.none()) if column != "id" else value,
        ),
        st.tuples(
            st.just(column),
            st.just("in"),
            members.flatmap(
                lambda found: st.sampled_from([list(found), tuple(found), set(found)])
            ),
        ),
        st.tuples(st.just(column), st.just("is_null"), st.booleans()),
    )


#: Columns drawn for conditions, the indexed ones (and the pk) oftenest.
_ORACLE_COLUMNS = ["a", "a", "c", "c", "c", "id", "id", "b", "u"]

_ORACLE_QUERIES = st.fixed_dictionaries(
    {
        "conds": st.lists(
            st.sampled_from(_ORACLE_COLUMNS).flatmap(_condition),
            min_size=1,
            max_size=3,
        ),
        "order": st.one_of(
            st.none(), st.tuples(st.sampled_from(["a", "c", "b", "id"]), st.booleans())
        ),
        "limit": st.sampled_from([None, 1, 5]),
        "offset": st.sampled_from([0, 2]),
        "select": st.sampled_from([None, ("a", "c"), ("c",), ("a",)]),
    }
)


def _build(source, spec):
    query = source.query("item")
    for column, op, value in spec["conds"]:
        query = query.where(column, op, value)
    if spec["order"] is not None:
        column, descending = spec["order"]
        query = query.order_by(column, descending=descending)
    if spec["limit"] is not None:
        query = query.limit(spec["limit"])
    if spec["offset"]:
        query = query.offset(spec["offset"])
    if spec["select"] is not None:
        query = query.select(*spec["select"])
    return query


def _assert_same_answer(db, spec, rows, scan_rows, label):
    """*rows* answer *spec* as the forced scan's *scan_rows* do: the same
    rows without paging; under paging as many rows, each a match; and
    with ORDER BY the same sequence of order keys (ties may differ)."""
    ids = [row["id"] for row in rows]
    assert len(set(ids)) == len(ids), label
    if spec["limit"] is None and not spec["offset"]:
        assert sorted(ids) == sorted(r["id"] for r in scan_rows), label
    else:
        assert len(rows) == len(scan_rows), label
        everything = {**spec, "limit": None, "offset": 0, "order": None}
        matching = {r["id"] for r in _build(db, everything).without_indexes().all()}
        assert set(ids) <= matching, label
    if spec["order"] is not None:
        column = spec["order"][0]

        def keys(found):
            return [sort_key(db.get("item", r["id"])[column]) for r in found]

        assert keys(rows) == keys(scan_rows), label


@pytest.fixture(scope="module")
def oracle_db():
    return _oracle_db()


def _oracle_examples(test):
    """Corners the draw reaches rarely: a residual on the pk under a
    covering read, several bounds on one column, a prefix with a range
    read backwards under paging."""
    corners = [
        {"conds": [("id", ">", 5)], "order": ("a", False), "limit": 5,
         "offset": 0, "select": ("a", "c")},
        {"conds": [("c", ">", 5), ("c", ">=", 30), ("c", "<", 45), ("c", "<=", 40)],
         "order": None, "limit": None, "offset": 0, "select": None},
        {"conds": [("a", "=", 0), ("c", "<=", 20), ("c", "<", 20)],
         "order": ("c", True), "limit": 5, "offset": 2, "select": ("a", "c")},
    ]
    for spec in corners:
        test = example(spec=spec)(test)
    return test


_ORACLE_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestEveryPricedPlan:
    """Every plan ``_candidate_plans()`` prices — not only the winner —
    returns what the forced scan returns, live and at a snapshot (where
    the plan is pinned through ``_materialize``); and the plan the shape
    memo picks is ``min()`` of that fresh enumeration."""

    @_ORACLE_SETTINGS
    @_oracle_examples
    @given(spec=_ORACLE_QUERIES)
    def test_each_live_plan_answers_what_a_scan_answers(self, oracle_db, spec):
        scan_rows = _build(oracle_db, spec).without_indexes().all()
        for plan in _build(oracle_db, spec)._candidate_plans(for_snapshot=False):
            forced = _build(oracle_db, spec)
            forced._plan = lambda plan=plan: plan
            _assert_same_answer(oracle_db, spec, forced.all(), scan_rows, plan.strategy)

    @_ORACLE_SETTINGS
    @_oracle_examples
    @given(spec=_ORACLE_QUERIES)
    def test_each_pinned_plan_answers_what_a_scan_answers(self, oracle_db, spec):
        with oracle_db.snapshot() as snap:
            scan_rows = _build(snap, spec).without_indexes().all()
            plans = _build(snap, spec)._candidate_plans(for_snapshot=True)
            assert all(plan.kind != "covering" for plan in plans)
            for plan in plans:
                forced = _build(snap, spec)
                forced._plan_live = lambda for_snapshot=False, plan=plan: plan
                pinned = forced._plan()
                assert pinned.kind in ("pks", "scan"), plan.strategy
                _assert_same_answer(
                    oracle_db, spec, forced.all(), scan_rows, plan.strategy
                )

    @_ORACLE_SETTINGS
    @_oracle_examples
    @given(spec=_ORACLE_QUERIES)
    def test_the_memo_picks_the_cheapest_enumerated_plan(self, oracle_db, spec):
        for source_snapshot in (False, True):
            query = _build(oracle_db, spec)
            chosen = query._plan_live(for_snapshot=source_snapshot)
            if query._pk_plan() is not None:
                assert chosen.strategy == "pk"
                continue
            # min() is stable: the first of equally cheap plans wins.
            cheapest = min(
                query._candidate_plans(source_snapshot), key=lambda p: p.cost
            )
            assert chosen.strategy == cheapest.strategy, spec
            # Asked again, from the memo, for values of the same shape.
            assert _build(oracle_db, spec)._plan_live(
                for_snapshot=source_snapshot
            ).strategy == cheapest.strategy


# -- the shape memo's work counter -------------------------------------------


class TestPlanMemo:
    """``storage_query_plans_total`` counts where each plan's paths came
    from: one enumeration per shape, then the memo."""

    @pytest.fixture(scope="class")
    def deployment(self):
        from repro.facade import BFabric
        from repro.workload import DeploymentGenerator, FGCZ_JANUARY_2010

        system = BFabric()
        DeploymentGenerator(system, seed=2010).generate(FGCZ_JANUARY_2010.scaled(0.02))
        return system

    def _counts(self, db):
        family = db.obs.metrics.get("storage_query_plans_total")
        return {labels["result"]: child.value for labels, child in family.samples()}

    def test_each_shape_is_enumerated_once(self, deployment):
        db = deployment.db
        for name in db.table_names():
            db.table(name).plan_memo.clear()
        projects = [row["id"] for row in db.rows("project")]
        workunits = [row["name"] for row in db.rows("workunit")]
        samples = [row["id"] for row in db.rows("sample")]
        rng = random.Random("engine_mixed/2010")
        # engine_mixed's read shapes; pk_query and hot_set take the
        # primary-key shortcut, which plans nothing from the memo.
        shapes = {
            "indexed_eq": lambda: db.query("sample").where(
                "project_id", "=", rng.choice(projects)
            ),
            "range_limit": lambda: db.query("workunit").where(
                "name", ">=", rng.choice(workunits)
            ).order_by("name").limit(10),
            "pk_query": lambda: db.query("sample").where("id", "=", rng.choice(samples)),
            "hot_set": lambda: db.query("project").where("id", "=", rng.choice(projects)),
        }
        before = self._counts(db)
        stream = [rng.choice(sorted(shapes)) for _ in range(400)]
        for kind in stream:
            db.query_cache.clear()  # every call plans
            shapes[kind]().all()
        planned = sum(kind in ("indexed_eq", "range_limit") for kind in stream)
        after = self._counts(db)
        assert after["enumerated"] - before.get("enumerated", 0) == 2
        assert after["memo"] - before.get("memo", 0) == planned - 2
        # A new index on the sample table enumerates its shape once more;
        # the workunit shape stays memoized.
        db.add_index("sample", ("project_id", "species"), ordered=True)
        for kind in ("indexed_eq", "indexed_eq", "range_limit"):
            db.query_cache.clear()
            shapes[kind]().all()
        final = self._counts(db)
        assert final["enumerated"] - after["enumerated"] == 1
        assert final["memo"] - after["memo"] == 2

    def test_the_memo_is_bounded(self, deployment):
        from repro.storage.query import PLAN_MEMO_SIZE

        db = deployment.db
        for offset in range(PLAN_MEMO_SIZE + 10):
            db.query("workunit").where("name", ">=", "a").offset(offset).all()
        assert len(db.table("workunit").plan_memo) == PLAN_MEMO_SIZE
