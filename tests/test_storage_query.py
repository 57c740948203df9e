"""Query builder: predicates, planning, ordering, pagination."""

import pytest

from repro.errors import SchemaError
from repro.storage import Database, F


@pytest.fixture
def loaded(people_db: Database) -> Database:
    fgcz = people_db.insert("org", {"name": "FGCZ"})
    eth = people_db.insert("org", {"name": "ETH"})
    rows = [
        ("ada", 36, fgcz["id"]),
        ("grace", 45, fgcz["id"]),
        ("alan", 41, eth["id"]),
        ("edsger", 52, eth["id"]),
        ("barbara", 36, None),
    ]
    for name, age, org_id in rows:
        people_db.insert("person", {"name": name, "age": age, "org_id": org_id})
    return people_db


class TestPredicates:
    def test_eq(self, loaded):
        assert loaded.query("person").where("name", "=", "ada").count() == 1

    def test_ne(self, loaded):
        assert loaded.query("person").where("name", "!=", "ada").count() == 4

    def test_lt_le_gt_ge(self, loaded):
        q = loaded.query("person")
        assert q.where("age", "<", 41).count() == 2
        assert loaded.query("person").where("age", "<=", 41).count() == 3
        assert loaded.query("person").where("age", ">", 41).count() == 2
        assert loaded.query("person").where("age", ">=", 41).count() == 3

    def test_in(self, loaded):
        names = {"ada", "alan"}
        assert loaded.query("person").where("name", "in", names).count() == 2

    def test_contains_case_insensitive(self, loaded):
        assert loaded.query("person").where("name", "contains", "AD").count() == 1

    def test_startswith(self, loaded):
        assert loaded.query("person").where("name", "startswith", "a").count() == 2

    def test_is_null(self, loaded):
        assert loaded.query("person").where("org_id", "is_null", True).count() == 1
        assert loaded.query("person").where("org_id", "is_null", False).count() == 4

    def test_null_excluded_from_comparisons(self, loaded):
        # barbara has org_id None; "=" and range ops must not match NULL.
        assert loaded.query("person").where("org_id", "=", None).count() == 0
        assert loaded.query("person").where("age", ">", 0).count() == 5

    def test_conjunction(self, loaded):
        count = (
            loaded.query("person")
            .where("age", ">=", 40)
            .where("name", "startswith", "a")
            .count()
        )
        assert count == 1  # alan

    def test_f_helpers(self, loaded):
        rows = (
            loaded.query("person")
            .filter(F.ge("age", 36), F.contains("name", "a"))
            .all()
        )
        assert {r["name"] for r in rows} == {"ada", "grace", "alan", "barbara"}

    def test_unknown_column_rejected(self, loaded):
        with pytest.raises(SchemaError):
            loaded.query("person").where("bogus", "=", 1)

    def test_unknown_operator_rejected(self, loaded):
        with pytest.raises(SchemaError):
            loaded.query("person").where("name", "~=", "x")


class TestPlanning:
    def test_pk_lookup_strategy(self, loaded):
        plan = loaded.query("person").where("id", "=", 1).explain()
        assert plan["strategy"] == "pk"
        assert plan["candidates"] == 1

    def test_single_column_index_used(self, loaded):
        plan = loaded.query("person").where("name", "=", "ada").explain()
        assert plan["strategy"].startswith("index:")
        assert plan["candidates"] == 1

    def test_composite_index_preferred(self, loaded):
        plan = (
            loaded.query("person")
            .where("org_id", "=", 1)
            .where("age", "=", 36)
            .explain()
        )
        assert plan["strategy"] == "index:ix_person_org_id_age"
        assert plan["residual_predicates"] == 0

    def test_range_uses_sorted_index(self, loaded):
        plan = loaded.query("person").where("age", ">=", 40).explain()
        assert plan["strategy"].startswith("range:")

    def test_unindexed_predicate_scans(self, loaded):
        plan = loaded.query("person").where("name", "contains", "a").explain()
        assert plan["strategy"] == "scan"

    def test_without_indexes_forces_scan(self, loaded):
        plan = (
            loaded.query("person").where("name", "=", "ada").without_indexes().explain()
        )
        assert plan["strategy"] == "scan"

    def test_index_and_scan_agree(self, loaded):
        indexed = loaded.query("person").where("org_id", "=", 1).all()
        scanned = (
            loaded.query("person").where("org_id", "=", 1).without_indexes().all()
        )
        key = lambda r: r["id"]
        assert sorted(indexed, key=key) == sorted(scanned, key=key)

    def test_unique_index_used_for_equality(self, loaded):
        plan = loaded.query("org").where("name", "=", "FGCZ").explain()
        assert plan["strategy"].startswith(("index:", "range:"))

    def test_live_query_explains_no_snapshot(self, loaded):
        plan = loaded.query("person").where("name", "=", "ada").explain()
        assert plan["snapshot_version"] is None

    def test_snapshot_query_explains_its_version(self, loaded):
        with loaded.snapshot() as snap:
            plan = snap.query("person").where("name", "=", "ada").explain()
            assert plan["snapshot_version"] == snap.seq
            # The table hasn't moved: the planner may still use indexes.
            assert plan["strategy"].startswith("index:")

    def test_stale_snapshot_query_falls_back_to_scan(self, loaded):
        with loaded.snapshot() as snap:
            loaded.insert("person", {"name": "edsger", "age": 52})
            plan = snap.query("person").where("name", "=", "ada").explain()
            assert plan["snapshot_version"] == snap.seq
            assert plan["strategy"] == "scan"
            rows = snap.query("person").where("name", "=", "ada").all()
            assert [r["name"] for r in rows] == ["ada"]

    def test_snapshot_and_live_agree_when_unchanged(self, loaded):
        with loaded.snapshot() as snap:
            live = loaded.query("person").where("age", ">=", 40).values("name")
            pinned = snap.query("person").where("age", ">=", 40).values("name")
            assert sorted(live) == sorted(pinned)


class TestOrderingAndPagination:
    def test_order_by_ascending(self, loaded):
        ages = loaded.query("person").order_by("age").values("age")
        assert ages == sorted(ages)

    def test_order_by_descending(self, loaded):
        ages = loaded.query("person").order_by("age", descending=True).values("age")
        assert ages == sorted(ages, reverse=True)

    def test_multi_key_order(self, loaded):
        rows = (
            loaded.query("person")
            .order_by("age")
            .order_by("name")
            .all()
        )
        pairs = [(r["age"], r["name"]) for r in rows]
        assert pairs == sorted(pairs)

    def test_limit_offset(self, loaded):
        page1 = loaded.query("person").order_by("name").limit(2).all()
        page2 = loaded.query("person").order_by("name").limit(2).offset(2).all()
        names = [r["name"] for r in page1 + page2]
        assert names == ["ada", "alan", "barbara", "edsger"]

    def test_negative_limit_rejected(self, loaded):
        with pytest.raises(SchemaError):
            loaded.query("person").limit(-1)

    def test_count_ignores_limit(self, loaded):
        assert loaded.query("person").limit(1).count() == 5


class TestTerminalOperations:
    def test_first_returns_none_when_empty(self, loaded):
        assert loaded.query("person").where("name", "=", "nobody").first() is None

    def test_one_raises_on_zero(self, loaded):
        with pytest.raises(SchemaError):
            loaded.query("person").where("name", "=", "nobody").one()

    def test_one_raises_on_many(self, loaded):
        with pytest.raises(SchemaError):
            loaded.query("person").where("age", "=", 36).one()

    def test_one_returns_single(self, loaded):
        row = loaded.query("person").where("name", "=", "ada").one()
        assert row["age"] == 36

    def test_first_and_one_leave_the_query_unlimited(self, loaded):
        query = loaded.query("person").order_by("id")
        assert query.first()["name"] == "ada"
        assert len(query.all()) == 5
        with pytest.raises(SchemaError):
            query.one()
        assert query.pks() == [1, 2, 3, 4, 5]
        paged = loaded.query("person").order_by("id").limit(3)
        assert paged.first()["name"] == "ada"
        with pytest.raises(SchemaError):
            paged.one()
        assert paged.pks() == [1, 2, 3]

    def test_exists(self, loaded):
        assert loaded.query("person").where("name", "=", "ada").exists()
        assert not loaded.query("person").where("name", "=", "x").exists()

    def test_pks(self, loaded):
        pks = loaded.query("person").order_by("id").pks()
        assert pks == [1, 2, 3, 4, 5]

    def test_values(self, loaded):
        names = set(loaded.query("person").values("name"))
        assert "ada" in names

    def test_returned_rows_are_copies(self, loaded):
        row = loaded.query("person").where("name", "=", "ada").one()
        row["name"] = "mutated"
        fresh = loaded.query("person").where("name", "=", "ada").one()
        assert fresh["name"] == "ada"
