"""Version-keyed query-result caching: hits, invalidation, explain."""

import pytest

from repro.storage import Column, ColumnType, Database, TableSchema


def make_db(*, cache_size: int = 64) -> Database:
    db = Database(query_cache_size=cache_size)
    db.create_table(
        TableSchema(
            "doc",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("project", ColumnType.INT, nullable=False),
                Column("title", ColumnType.TEXT, nullable=False),
            ],
            indexes=["project"],
        )
    )
    for i in range(10):
        db.insert("doc", {"id": i, "project": i % 3, "title": f"doc {i}"})
    return db


def lookup_counts(db: Database) -> dict[str, float]:
    return db.query_cache.statistics()["lookups"]


class TestCacheHits:
    def test_repeat_query_hits(self):
        db = make_db()
        first = db.query("doc").where("project", "=", 1).all()
        second = db.query("doc").where("project", "=", 1).all()
        assert first == second
        counts = lookup_counts(db)
        assert counts["hit"] >= 1

    def test_hit_returns_copies(self):
        db = make_db()
        db.query("doc").where("project", "=", 1).all()
        stolen = db.query("doc").where("project", "=", 1).all()
        stolen[0]["title"] = "mutated"
        clean = db.query("doc").where("project", "=", 1).all()
        assert clean[0]["title"] != "mutated"

    def test_count_cached_separately_from_rows(self):
        db = make_db()
        q1 = db.query("doc").where("project", "=", 2)
        assert q1.count() == len(db.query("doc").where("project", "=", 2).all())
        assert db.query("doc").where("project", "=", 2).count() == q1.count()

    def test_lru_eviction_is_bounded(self):
        db = make_db(cache_size=4)
        for i in range(10):
            db.query("doc").where("id", "=", i).all()
        stats = db.query_cache.statistics()
        assert stats["entries"] <= 4
        assert stats["evictions"] >= 6


class TestInvalidation:
    def test_insert_invalidates(self):
        db = make_db()
        before = db.query("doc").where("project", "=", 0).all()
        db.insert("doc", {"id": 100, "project": 0, "title": "new"})
        after = db.query("doc").where("project", "=", 0).all()
        assert len(after) == len(before) + 1

    def test_update_invalidates(self):
        db = make_db()
        db.query("doc").where("project", "=", 1).all()
        db.update("doc", 1, {"project": 2})
        assert all(
            row["id"] != 1 for row in db.query("doc").where("project", "=", 1).all()
        )

    def test_delete_invalidates(self):
        db = make_db()
        db.query("doc").where("project", "=", 1).all()
        db.delete("doc", 1)
        ids = [r["id"] for r in db.query("doc").where("project", "=", 1).all()]
        assert 1 not in ids

    def test_dirty_table_bypasses_cache(self):
        db = make_db()
        db.query("doc").where("project", "=", 0).all()
        with db.transaction() as txn:
            txn.insert("doc", {"id": 200, "project": 0, "title": "uncommitted"})
            inside = db.query("doc").where("project", "=", 0).all()
            # The uncommitted row is visible to the transaction's own
            # connection but must come from a live read, not the cache.
            assert any(r["id"] == 200 for r in inside)
        counts = lookup_counts(db)
        assert counts.get("bypass", 0) >= 1


class TestRollback:
    def test_rollback_keeps_version_and_cache(self):
        db = make_db()
        table = db.table("doc")
        cached = db.query("doc").where("project", "=", 0).all()
        version = table.version
        txn = db.transaction()
        txn.insert("doc", {"id": 300, "project": 0, "title": "doomed"})
        txn.rollback()
        # No commit happened: the version must not move, so the old
        # cache entry is still valid and served again.
        assert table.version == version
        again = db.query("doc").where("project", "=", 0).all()
        assert again == cached
        assert lookup_counts(db)["hit"] >= 1

    def test_rollback_never_leaks_uncommitted_rows(self):
        db = make_db()
        txn = db.transaction()
        txn.insert("doc", {"id": 301, "project": 0, "title": "ghost"})
        txn.rollback()
        rows = db.query("doc").where("project", "=", 0).all()
        assert all(row["id"] != 301 for row in rows)


class TestExplain:
    def test_explain_reports_miss_then_hit(self):
        db = make_db()
        query = db.query("doc").where("project", "=", 1)
        assert query.explain()["cache"] == "miss"
        query.all()
        assert query.explain()["cache"] == "hit"

    def test_explain_reports_bypass_for_forced_scan(self):
        db = make_db()
        query = db.query("doc").where("project", "=", 1).without_indexes()
        plan = query.explain()
        assert plan["strategy"] == "scan"
        assert plan["cache"] == "bypassed"

    def test_fingerprint_distinguishes_plans(self):
        db = make_db()
        indexed = db.query("doc").where("project", "=", 1)
        scan = db.query("doc").where("project", "=", 1).without_indexes()
        assert indexed.explain()["strategy"].startswith("index:")
        assert scan.explain()["strategy"] == "scan"
        assert indexed.fingerprint() != scan.fingerprint()

    def test_fingerprint_stable_for_same_shape(self):
        db = make_db()
        a = db.query("doc").where("project", "=", 1).order_by("id").limit(3)
        b = db.query("doc").where("project", "=", 1).order_by("id").limit(3)
        assert a.fingerprint() == b.fingerprint()

    def test_cache_disabled_always_bypasses(self):
        db = make_db(cache_size=0)
        query = db.query("doc").where("project", "=", 1)
        query.all()
        assert query.explain()["cache"] == "bypassed"
        assert len(db.query_cache) == 0

    def test_explain_reports_cache_key_provenance(self):
        db = make_db()
        plan = db.query("doc").where("project", "=", 1).explain()
        key = plan["cache_key"]
        assert key["table"] == "doc"
        assert key["version"] == db.table("doc").version
        assert key["kind"] == "rows"
        assert isinstance(key["fingerprint"], str)

    def test_bypassed_query_has_no_cache_key(self):
        db = make_db()
        plan = db.query("doc").where("project", "=", 1).without_indexes().explain()
        assert plan["cache"] == "bypassed"
        assert plan["cache_key"] is None


class TestSnapshotCaching:
    def test_snapshot_and_live_share_cache_entries(self):
        """While the table sits at the snapshot's version, both paths
        compute the same (table, version, kind, fingerprint) key: a
        live query warms the cache for snapshot readers and vice
        versa."""
        db = make_db()
        with db.snapshot() as snap:
            live_key = db.query("doc").where("project", "=", 1).explain()[
                "cache_key"
            ]
            snap_key = snap.query("doc").where("project", "=", 1).explain()[
                "cache_key"
            ]
            assert live_key == snap_key
            db.query("doc").where("project", "=", 1).all()
            assert (
                snap.query("doc").where("project", "=", 1).explain()["cache"]
                == "hit"
            )

    def test_commit_landing_mid_query_never_caches_the_stale_result(self):
        """A commit racing a snapshot query's execution must not
        publish the snapshot-state rows into the shared cache: the put
        re-verifies that the version captured for the key is still
        current, so live readers at the new version recompute."""
        db = make_db()
        with db.snapshot() as snap:
            query = snap.query("doc").where("project", "=", 1)
            real = query._limited_rows

            def commit_mid_execution():
                rows = real()
                db.insert("doc", {"id": 500, "project": 1, "title": "racer"})
                return rows

            query._limited_rows = commit_mid_execution
            stale = query.all()
            assert all(row["id"] != 500 for row in stale)
        fresh = db.query("doc").where("project", "=", 1).all()
        assert any(row["id"] == 500 for row in fresh)

    def test_historical_snapshot_bypasses_cache(self):
        """Once the table moves past the snapshot, its results describe
        a state no future query can name — caching them under the
        current version would poison live readers, so the query runs
        uncached."""
        db = make_db()
        with db.snapshot() as snap:
            db.insert("doc", {"id": 400, "project": 1, "title": "newer"})
            query = snap.query("doc").where("project", "=", 1)
            rows = query.all()
            assert all(row["id"] != 400 for row in rows)
            plan = query.explain()
            assert plan["cache"] == "bypassed"
            assert plan["cache_key"] is None
            assert plan["snapshot_version"] == snap.seq


class TestSharedPayloads:
    """Cached results share the table's immutable version payloads;
    what a caller gets is always its own (shallow) copy."""

    def test_mutating_a_returned_row_changes_nothing(self):
        db = make_db()
        with db.snapshot() as snap:
            first = db.query("doc").where("project", "=", 1).all()  # miss
            first.sort(key=lambda r: r["id"])
            first[0]["title"] = "scribbled"
            first[0]["extra"] = True
            del first[1]["project"]
            assert db.get("doc", 1)["title"] == "doc 1"
            hit = db.query("doc").where("project", "=", 1).all()
            assert lookup_counts(db)["hit"] == 1
            assert sorted(r["title"] for r in hit) == ["doc 1", "doc 4", "doc 7"]
            assert all(set(r) == {"id", "project", "title"} for r in hit)
            for row in hit:
                row["title"] = "scribbled again"
            assert snap.get("doc", 1)["title"] == "doc 1"
            assert {"id": 1, "project": 1, "title": "doc 1"} in (
                snap.query("doc").where("project", "=", 1).all()
            )
        assert next(db.table("doc").raw_rows([1]))["title"] == "doc 1"

    def test_entry_outlives_the_versions_it_shares(self):
        """An entry for version *v* holds references to the *v* payloads:
        superseding and pruning them leaves it intact (it is merely
        unreachable for readers of the new version)."""
        db = make_db()
        table = db.table("doc")
        query = db.query("doc").where("project", "=", 1)
        version = table.version
        old_key = query._cache_key("rows", version)
        before = query.all()
        for row in before:
            db.update("doc", row["id"], {"title": "rewritten"})
        table.prune_versions(db.committed_seq)
        assert all(table.version_chain_length(r["id"]) == 1 for r in before)
        assert [dict(r) for r in db.query_cache.get(old_key)] == before
        fresh = db.query("doc").where("project", "=", 1).all()
        assert {r["title"] for r in fresh} == {"rewritten"}

    def test_projected_results_cache_private_rows(self):
        db = make_db()
        first = db.query("doc").select("title").where("project", "=", 2).all()
        assert all(set(r) == {"title", "id"} for r in first)
        first[0]["title"] = "scribbled"
        again = db.query("doc").select("title").where("project", "=", 2).all()
        assert lookup_counts(db)["hit"] == 1
        assert sorted(r["title"] for r in again) == ["doc 2", "doc 5", "doc 8"]
        # The projection is part of the key: full rows do not hit it.
        full = db.query("doc").where("project", "=", 2).all()
        assert set(full[0]) == {"id", "project", "title"}
        assert lookup_counts(db)["hit"] == 1

    def test_snapshot_query_populates_and_hits(self):
        db = make_db()
        with db.snapshot() as snap:
            rows = snap.query("doc").where("project", "=", 0).all()
            for row in rows:
                row["title"] = "scribbled"
            assert lookup_counts(db) == {"miss": 1}
            again = snap.query("doc").where("project", "=", 0).all()
            assert lookup_counts(db) == {"miss": 1, "hit": 1}
            assert sorted(r["title"] for r in again) == [
                "doc 0", "doc 3", "doc 6", "doc 9",
            ]
            assert snap.query("doc").where("project", "=", 0).count() == 4
            assert snap.query("doc").where("project", "=", 0).count() == 4
            assert lookup_counts(db) == {"miss": 2, "hit": 2}


class TestKeyBeforePlan:
    def _count_planning(self, monkeypatch):
        from repro.storage.query import Query

        calls = []
        real = Query._plan_live

        def counting(self, **kwargs):
            calls.append(self)
            return real(self, **kwargs)

        monkeypatch.setattr(Query, "_plan_live", counting)
        return calls

    def test_equal_shapes_share_a_key_without_planning(self, monkeypatch):
        db = make_db()
        calls = self._count_planning(monkeypatch)
        version = db.table("doc").version

        def shape():
            return db.query("doc").where("project", "=", 1).order_by("id").limit(2)

        a, b = shape(), shape()
        assert a.fingerprint() == b.fingerprint()
        assert a._cache_key("rows", version) == b._cache_key("rows", version)
        assert calls == []
        assert a.all() == b.all()  # miss plans once, the hit not at all
        assert len(calls) == 1
        assert shape().count() == 3 and shape().count() == 3
        assert len(calls) == 2
        assert lookup_counts(db) == {"miss": 2, "hit": 2}

    def test_key_does_not_depend_on_the_access_path(self):
        """The same query before and after an index appears: the
        strategy changes, the fingerprint does not."""
        db = make_db()
        query = db.query("doc").where("title", "=", "doc 1")
        assert query.explain()["strategy"] == "scan"
        before = query.fingerprint()
        db.add_index("doc", "title")
        assert query.explain()["strategy"].startswith("index:")
        assert query.fingerprint() == before == query.explain()["fingerprint"]

    def test_cache_hit_still_reports_the_table_to_the_read_probe(self):
        """The portal learns a route's covering tables from the probe;
        a render answered from the query cache read them all the same."""
        from repro.storage.table import track_reads

        db = make_db()
        db.query("doc").where("project", "=", 1).all()
        db.query("doc").where("project", "=", 1).count()
        with track_reads(set()) as sink:
            db.query("doc").where("project", "=", 1).all()
            assert sink == {"doc"}
            sink.clear()
            db.query("doc").where("project", "=", 1).count()
            assert sink == {"doc"}
        assert lookup_counts(db)["hit"] == 2

    def test_a_plan_that_fetches_no_row_still_reports_the_table(self):
        """A snapshot read of an empty bucket resolves no row, and a
        memoized plan prices nothing: the probe learns the table from
        the execution itself, on the first (uncached) read."""
        from repro.storage.table import track_reads

        db = make_db()
        with db.snapshot() as snap, track_reads(set()) as sink:
            assert snap.query("doc").where("project", "=", 99).all() == []
            assert sink == {"doc"}


def _typed_db() -> Database:
    db = Database(query_cache_size=64)
    db.create_table(
        TableSchema(
            "item",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("n", ColumnType.INT),
                Column("meta", ColumnType.JSON),
            ],
            indexes=["n"],
        )
    )
    for i in range(6):
        db.insert("item", {"id": i, "n": i % 3, "meta": {"k": i % 2}})
    return db


class TestTypedKeys:
    """The cache key is ``(table, version, kind, shape, values)`` with
    each value beside its type; a value that cannot be hashed keys the
    entry by the query's fingerprint instead."""

    def _key(self, query):
        return query._cache_key("rows", query._table.version)

    def test_equal_values_of_other_types_never_share_an_entry(self):
        db = _typed_db()
        queries = [db.query("item").where("n", "=", v) for v in (1, 1.0, True)]
        keys = {self._key(q) for q in queries}
        assert len(keys) == 3
        assert all(len(key) == 5 for key in keys)
        answers = [sorted(r["id"] for r in q.all()) for q in queries]
        assert answers == [[1, 4]] * 3
        assert lookup_counts(db) == {"miss": 3}
        assert [sorted(r["id"] for r in q.all()) for q in queries] == answers
        assert lookup_counts(db) == {"miss": 3, "hit": 3}

    def test_the_limit_and_the_values_are_part_of_the_key(self):
        db = _typed_db()
        base = db.query("item").where("n", ">=", 1).order_by("id")
        assert self._key(base) != self._key(
            db.query("item").where("n", ">=", 1).order_by("id").limit(2)
        )
        assert self._key(base.limit(1)) != self._key(
            db.query("item").where("n", ">=", 1).order_by("id").limit(2)
        )
        assert self._key(db.query("item").where("n", ">=", 2)) != self._key(
            db.query("item").where("n", ">=", 1)
        )

    def test_unhashable_values_are_keyed_by_the_fingerprint(self):
        db = _typed_db()
        cases = [
            db.query("item").where("meta", "=", {"k": 1}),
            db.query("item").where("meta", "=", {"k": True}),
            db.query("item").where("n", "in", [1]),
            db.query("item").where("n", "in", [True]),
            db.query("item").where("n", "in", [1, 2]),
        ]
        keys = [self._key(q) for q in cases]
        assert [key[3] for key in keys] == [q.fingerprint() for q in cases]
        assert len(set(keys)) == len(cases)
        answers = [sorted(r["id"] for r in q.all()) for q in cases]
        assert answers == [[1, 3, 5], [1, 3, 5], [1, 4], [1, 4], [1, 2, 4, 5]]
        assert lookup_counts(db) == {"miss": 5}
        # The same list again shares its entry, and so does a tuple of
        # the same members (hashable, keyed by shape and values).
        again = db.query("item").where("n", "in", [1, 2])
        assert self._key(again) == keys[4]
        assert sorted(r["id"] for r in again.all()) == [1, 2, 4, 5]
        assert lookup_counts(db) == {"miss": 5, "hit": 1}
        as_tuple = db.query("item").where("n", "in", (1, 2))
        assert len(self._key(as_tuple)) == 5
        assert sorted(r["id"] for r in as_tuple.all()) == [1, 2, 4, 5]

    @pytest.mark.parametrize("change", ["add_column", "add_index"])
    def test_a_schema_change_plans_the_shape_afresh(self, change):
        from repro.storage import Column as Col

        db = _typed_db()
        plans = db.obs.metrics.get("storage_query_plans_total")

        def counts():
            return {
                labels["result"]: child.value for labels, child in plans.samples()
            }

        def query():
            return db.query("item").where("meta", "=", {"k": 1}).where("n", ">=", 1)

        first = query().all()
        assert counts() == {"memo": 0, "enumerated": 1}
        db.query_cache.clear()
        assert query().all() == first
        assert counts() == {"memo": 1, "enumerated": 1}
        if change == "add_column":
            db.add_column("item", Col("extra", ColumnType.TEXT))
        else:
            db.add_index("item", "meta")
        after = query()
        assert counts() == {"memo": 1, "enumerated": 1}
        rows = after.all()
        assert counts() == {"memo": 1, "enumerated": 2}
        assert rows == query().without_indexes().all()
        assert sorted(r["id"] for r in rows) == [1, 5]
        if change == "add_index":
            assert after.explain()["strategy"] == "index:sx_item_meta"
