"""Transaction semantics: atomicity, rollback, savepoints, context manager."""

import pytest

from repro.errors import (
    ForeignKeyViolation,
    TransactionError,
    UniqueViolation,
)
from repro.storage import Database


class TestCommitRollback:
    def test_commit_persists(self, people_db: Database):
        with people_db.transaction() as txn:
            txn.insert("org", {"name": "FGCZ"})
        assert people_db.count("org") == 1

    def test_rollback_discards(self, people_db):
        txn = people_db.transaction()
        txn.insert("org", {"name": "FGCZ"})
        txn.rollback()
        assert people_db.count("org") == 0

    def test_exception_inside_block_rolls_back(self, people_db):
        with pytest.raises(RuntimeError):
            with people_db.transaction() as txn:
                txn.insert("org", {"name": "FGCZ"})
                raise RuntimeError("boom")
        assert people_db.count("org") == 0

    def test_multi_table_atomicity(self, people_db):
        txn = people_db.transaction()
        org = txn.insert("org", {"name": "FGCZ"})
        txn.insert("person", {"name": "p", "org_id": org["id"]})
        txn.rollback()
        assert people_db.count("org") == 0
        assert people_db.count("person") == 0

    def test_rollback_restores_update(self, people_db):
        org = people_db.insert("org", {"name": "before"})
        txn = people_db.transaction()
        txn.update("org", org["id"], {"name": "after"})
        txn.rollback()
        assert people_db.get("org", org["id"])["name"] == "before"

    def test_rollback_restores_delete(self, people_db):
        org = people_db.insert("org", {"name": "FGCZ"})
        txn = people_db.transaction()
        txn.delete("org", org["id"])
        txn.rollback()
        assert people_db.get("org", org["id"])["name"] == "FGCZ"

    def test_rollback_restores_indexes(self, people_db):
        org = people_db.insert("org", {"name": "FGCZ"})
        txn = people_db.transaction()
        txn.update("org", org["id"], {"name": "renamed"})
        txn.rollback()
        assert people_db.query("org").where("name", "=", "FGCZ").count() == 1
        assert people_db.query("org").where("name", "=", "renamed").count() == 0

    def test_use_after_commit_fails(self, people_db):
        txn = people_db.transaction()
        txn.insert("org", {"name": "A"})
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("org", {"name": "B"})

    def test_double_commit_fails(self, people_db):
        txn = people_db.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_explicit_commit_then_block_exit_is_noop(self, people_db):
        with people_db.transaction() as txn:
            txn.insert("org", {"name": "A"})
            txn.commit()
        assert people_db.count("org") == 1

    def test_failed_statement_does_not_poison_transaction(self, people_db):
        with people_db.transaction() as txn:
            txn.insert("org", {"name": "A"})
            with pytest.raises(UniqueViolation):
                txn.insert("org", {"name": "A"})
            txn.insert("org", {"name": "B"})
        assert people_db.count("org") == 2


class TestSavepoints:
    def test_rollback_to_savepoint(self, people_db):
        with people_db.transaction() as txn:
            txn.insert("org", {"name": "A"})
            txn.savepoint("sp")
            txn.insert("org", {"name": "B"})
            txn.rollback_to("sp")
        names = sorted(people_db.query("org").values("name"))
        assert names == ["A"]

    def test_unknown_savepoint(self, people_db):
        with people_db.transaction() as txn:
            with pytest.raises(TransactionError):
                txn.rollback_to("missing")

    def test_savepoint_invalidated_after_rollback_past_it(self, people_db):
        with people_db.transaction() as txn:
            txn.savepoint("outer")
            txn.insert("org", {"name": "A"})
            txn.savepoint("inner")
            txn.rollback_to("outer")
            with pytest.raises(TransactionError):
                txn.rollback_to("inner")

    def test_nested_savepoints(self, people_db):
        with people_db.transaction() as txn:
            txn.insert("org", {"name": "keep"})
            txn.savepoint("one")
            txn.insert("org", {"name": "drop1"})
            txn.savepoint("two")
            txn.insert("org", {"name": "drop2"})
            txn.rollback_to("two")
            txn.rollback_to("one")
        assert people_db.query("org").values("name") == ["keep"]


class TestCascadeInTransactions:
    def test_cascade_rolls_back_with_transaction(self):
        from repro.storage import Column, ColumnType, ForeignKey, TableSchema

        db = Database()
        db.create_table(
            TableSchema("parent", [Column("id", ColumnType.INT, primary_key=True)])
        )
        db.create_table(
            TableSchema(
                "child",
                [
                    Column("id", ColumnType.INT, primary_key=True),
                    Column(
                        "parent_id",
                        ColumnType.INT,
                        foreign_key=ForeignKey("parent", on_delete="cascade"),
                    ),
                ],
                indexes=["parent_id"],
            )
        )
        parent = db.insert("parent", {})
        db.insert("child", {"parent_id": parent["id"]})
        txn = db.transaction()
        txn.delete("parent", parent["id"])
        assert db.count("child") == 0
        txn.rollback()
        assert db.count("child") == 1
        assert db.count("parent") == 1

    def test_restrict_raises_before_any_mutation(self, people_db):
        org = people_db.insert("org", {"name": "FGCZ"})
        people_db.insert("person", {"name": "p", "org_id": org["id"]})
        with people_db.transaction() as txn:
            with pytest.raises(ForeignKeyViolation):
                txn.delete("org", org["id"])
        assert people_db.count("org") == 1
        assert people_db.count("person") == 1


class TestCommitListeners:
    def test_listener_sees_operations(self, people_db):
        seen = []
        people_db.on_commit(
            lambda event: seen.append([op.op for op in event.ops])
        )
        with people_db.transaction() as txn:
            org = txn.insert("org", {"name": "A"})
            txn.update("org", org["id"], {"name": "B"})
        assert seen == [["insert", "update"]]

    def test_listener_not_called_on_rollback(self, people_db):
        seen = []
        people_db.on_commit(lambda event: seen.append(event.ops))
        txn = people_db.transaction()
        txn.insert("org", {"name": "A"})
        txn.rollback()
        assert seen == []
