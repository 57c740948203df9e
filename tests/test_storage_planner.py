"""Cost-based planner: plan choice, ordered/composite/covering indexes.

Every plan-shape test cross-checks the costed path against the forced
scan (``without_indexes``) on the same query — the planner may only
change *how* rows are found, never *which* rows.
"""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.index import HashIndex, OrderedIndex


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
        """A range + LIMIT miss (engine_mixed's range_limit shape) probes
        the ordered index once: the scan's selectivity and the seek
        share one estimate within the planning call."""
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
        assert len(calls) == 1
        assert rows == shape().without_indexes().all()
        # explain() still prices every rival afresh, to the same figures.
        assert query.explain() == report
        assert report["strategy"] == "range:sx_workunit_name"


# -- statistics ------------------------------------------------------------


class TestStatistics:
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
