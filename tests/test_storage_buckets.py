"""Index buckets cost what they hold, and ``verify_integrity`` checks
every index against the rows both ways.

A key holding one pk stores the 1-tuple ``(pk,)``; a second pk
replaces it with a set, and dropping back to one pk replaces the set
with a 1-tuple again.  An empty bucket is deleted.  Each single-column
plain index is one ordered structure.
"""

from __future__ import annotations

import pytest

from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.index import NULL, HashIndex, OrderedIndex


def make_db(path=None) -> Database:
    db = Database(path, durability="buffered")
    db.create_table(
        TableSchema(
            "sample",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT, nullable=False, unique=True),
                Column("project", ColumnType.INT),
                Column("kind", ColumnType.TEXT),
            ],
            indexes=["project", ("project", "kind")],
            ordered=[("kind", "name")],
        )
    )
    return db


def buckets(db: Database) -> dict:
    """Index name -> the bucket under project 7 (kind "x" where the
    index has that column too)."""
    table = db.table("sample")
    return {
        "project": table.hash_index_for(("project",)).members((7,)),
        "project_kind": table.hash_index_for(("project", "kind")).members((7, "x")),
    }


def add(db: Database, pk: int) -> None:
    db.insert("sample", {"id": pk, "name": f"s{pk}", "project": 7, "kind": "x"})


def assert_shape(db: Database, pks: "set[int]") -> None:
    """Every bucket under the shared key holds *pks* in its compact form."""
    for name, bucket in buckets(db).items():
        if not pks:
            assert bucket == (), name
        elif len(pks) == 1:
            assert type(bucket) is tuple and set(bucket) == pks, name
        else:
            assert type(bucket) is set and bucket == pks, name
    assert db.verify_integrity() == []


class TestOneStructurePerSpec:
    def test_single_column_spec_is_one_ordered_index(self):
        table = make_db().table("sample")
        index = table.hash_index_for(("project",))
        assert isinstance(index, OrderedIndex)
        assert index is table.ordered_index_for(("project",))
        assert isinstance(table.hash_index_for(("project", "kind")), HashIndex)
        names = [
            ix.name
            for ix in [*table._unique_indexes, *table.hash_indexes(), *table.ordered_indexes()]
        ]
        assert sorted(set(names)) == [
            "ix_sample_project_kind", "ox_sample_kind_name",
            "sx_sample_project", "uq_sample_name",
        ]
        assert table._index_count() == 4

    def test_index_ops_count_each_index_once(self):
        db = make_db()
        family = db.obs.metrics.get("storage_index_ops_total")
        add(db, 1)
        assert family.labels(table="sample", action="add").value == 4
        db.update("sample", 1, {"project": 8})
        assert family.labels(table="sample", action="add").value == 6
        assert family.labels(table="sample", action="remove").value == 2


class TestBucketShapes:
    def test_insert_promote_demote_delete(self):
        db = make_db()
        add(db, 1)
        assert_shape(db, {1})
        add(db, 2)
        assert_shape(db, {1, 2})
        add(db, 3)
        assert_shape(db, {1, 2, 3})
        db.delete("sample", 3)
        assert_shape(db, {1, 2})
        db.delete("sample", 1)
        assert_shape(db, {2})
        db.update("sample", 2, {"project": 8})
        assert_shape(db, set())
        table = db.table("sample")
        assert list(table.hash_index_for(("project",)).seek((7,))) == []
        assert (7, "x") not in dict(table.hash_index_for(("project", "kind")).entries())

    def test_rolled_back_transaction_restores_the_shape(self):
        db = make_db()
        add(db, 1)
        with db.transaction() as txn:
            txn.insert("sample", {"id": 2, "name": "s2", "project": 7, "kind": "x"})
            txn.rollback()
        assert_shape(db, {1})
        add(db, 2)
        with db.transaction() as txn:
            txn.delete("sample", 2)
            txn.delete("sample", 1)
            txn.rollback()
        assert_shape(db, {1, 2})
        with db.transaction() as txn:
            txn.update("sample", 2, {"project": 9})
            txn.rollback()
        assert_shape(db, {1, 2})

    @pytest.mark.parametrize("checkpoint", [True, False], ids=["load_rows", "wal"])
    def test_recover_files_compact_buckets(self, tmp_path, checkpoint):
        db = make_db(tmp_path)
        add(db, 1)
        add(db, 2)
        db.insert("sample", {"id": 3, "name": "s3", "project": 8, "kind": "x"})
        if checkpoint:
            db.checkpoint()
        db.close()
        revived = make_db(tmp_path)
        revived.recover()
        assert_shape(revived, {1, 2})
        lone = revived.table("sample").hash_index_for(("project",)).members((8,))
        assert lone == (3,)
        revived.close()

    def test_load_rows_files_compact_buckets(self):
        db = make_db()
        rows = [
            {"id": pk, "name": f"s{pk}", "project": 7 if pk < 3 else 8, "kind": "x"}
            for pk in (1, 2, 3)
        ]
        db.table("sample").load_rows(rows)
        assert_shape(db, {1, 2})

    def test_held_buckets_keep_their_old_pks(self):
        db = make_db()
        add(db, 1)
        held = buckets(db)
        add(db, 2)
        for name, bucket in held.items():
            assert list(bucket) == [1], name
        held = buckets(db)
        db.delete("sample", 2)
        for name, bucket in held.items():
            assert sorted(bucket) == [1, 2], name
        assert_shape(db, {1})


def corrupt_db() -> Database:
    db = make_db()
    for pk in range(1, 5):
        db.insert(
            "sample",
            {"id": pk, "name": f"s{pk}", "project": pk % 2, "kind": "x"},
        )
    assert db.verify_integrity() == []
    return db


class TestVerifyIntegrity:
    """Each corruption is reported, for the single-column ordered index
    that now carries equality."""

    def index(self, db: Database) -> OrderedIndex:
        return db.table("sample").hash_index_for(("project",))

    def test_row_missing_from_its_bucket(self):
        db = corrupt_db()
        index = self.index(db)
        index._by_key[1] = (1,)
        problems = db.verify_integrity()
        assert any("sample[3]: missing from index sx_sample_project" in p for p in problems)

    def test_filed_pk_that_is_no_live_row(self):
        db = corrupt_db()
        index = self.index(db)
        index._by_key[0] = index._by_key[0] | {99}
        index._entries += 1
        problems = db.verify_integrity()
        assert any("99 filed under (0,)" in p for p in problems)

    def test_filed_pk_whose_row_has_another_key(self):
        db = corrupt_db()
        index = db.table("sample").hash_index_for(("project", "kind"))
        index._buckets[(0, "x")] = {2, 4, 1}
        index._entries += 1
        problems = db.verify_integrity()
        assert any("1 filed under (0, 'x')" in p for p in problems)

    def test_entry_count_out_of_step(self):
        db = corrupt_db()
        self.index(db)._entries += 1
        problems = db.verify_integrity()
        assert any("counts 5 entries, holds 4" in p for p in problems)

    def test_sorted_keys_out_of_order(self):
        db = corrupt_db()
        self.index(db)._sorted_keys.reverse()
        problems = db.verify_integrity()
        assert any("sorted keys out of step" in p for p in problems)

    def test_sorted_keys_out_of_step_with_buckets(self):
        db = corrupt_db()
        self.index(db)._sorted_keys.append(5)
        problems = db.verify_integrity()
        assert any("sorted keys out of step" in p for p in problems)

    def test_key_of_the_wrong_type(self):
        db = corrupt_db()
        index = self.index(db)
        index._by_key["0"] = index._by_key.pop(0)
        index._sorted_keys[0] = "0"
        problems = db.verify_integrity()
        assert any("key '0' is not int" in p for p in problems)
        assert any("sorted keys out of step" in p for p in problems)

    def test_wrapped_key(self):
        db = corrupt_db()
        index = self.index(db)
        index._by_key[(2, 0)] = index._by_key.pop(0)
        index._sorted_keys[0] = (2, 0)
        problems = db.verify_integrity()
        assert any("wrapped key (2, 0)" in p for p in problems)

    def test_null_key_not_at_the_head(self):
        db = corrupt_db()
        db.insert("sample", {"id": 9, "name": "s9", "project": None, "kind": "x"})
        index = self.index(db)
        assert index._sorted_keys[0] is NULL
        index._sorted_keys.append(index._sorted_keys.pop(0))
        problems = db.verify_integrity()
        assert any("NULL key not at the head" in p for p in problems)
        assert any("sorted keys out of step" in p for p in problems)

    @pytest.mark.parametrize("bucket", [(), set(), {2}, (2, 4)], ids=repr)
    def test_malformed_bucket(self, bucket):
        db = corrupt_db()
        index = self.index(db)
        index._by_key[0] = bucket
        problems = db.verify_integrity()
        assert any("malformed bucket" in p for p in problems)

    def test_rebuild_repairs_every_corruption(self):
        db = corrupt_db()
        index = self.index(db)
        index._entries += 3
        index._sorted_keys.reverse()
        index._by_key[0] = {2}
        assert db.verify_integrity() != []
        db.rebuild_indexes()
        assert db.verify_integrity() == []
