"""Transaction semantics: atomicity, rollback, savepoints, context manager."""

import threading

import pytest

from repro.errors import (
    ForeignKeyViolation,
    TransactionError,
    UniqueViolation,
)
from repro.storage import Column, ColumnType, Database, TableSchema


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


def _org_db(path=None) -> Database:
    database = Database(path)
    database.create_table(
        TableSchema(
            name="org",
            columns=[
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT, nullable=False, unique=True),
            ],
        )
    )
    return database


def _logged_names(database: Database) -> list[list[str]]:
    """The org names each commit line of the WAL inserts, line by line."""
    lines = []
    for record in database.wal.records():
        header = record["columns"]["org"]
        lines.append([dict(zip(header, values))["name"]
                      for _table, values in record["ops"]])
    return lines


def _writer_lock_free(database: Database) -> bool:
    """Whether another thread can open a transaction within a second."""
    taken = []

    def other():
        if database._lock.acquire(timeout=1.0):
            database._lock.release()
            taken.append(True)

    thread = threading.Thread(target=other)
    thread.start()
    thread.join()
    return bool(taken)


class TestThreadBoundTransaction:
    """While a thread's transaction is open, every write on that thread
    joins it: an autocommit statement or a nested ``transaction()``
    commits with the outer transaction, never on its own."""

    def test_an_autocommit_inside_a_transaction_joins_it(self, tmp_path):
        database = _org_db(tmp_path)
        commits = []
        database.on_commit(commits.append)
        with database.transaction() as txn:
            txn.insert("org", {"name": "outer"})
            database.insert("org", {"name": "joined"})
            with database.snapshot() as snap:
                # Neither row is committed: no snapshot may see either.
                assert snap.count("org") == 0
            assert commits == []
        assert len(commits) == 1
        assert [op.op for op in commits[0].ops] == ["insert", "insert"]
        assert _logged_names(database) == [["outer", "joined"]]
        with database.snapshot() as snap:
            assert snap.count("org") == 2
        database.close()

    def test_rolling_back_the_outer_undoes_a_joined_autocommit(self):
        database = _org_db()
        txn = database.transaction()
        txn.insert("org", {"name": "outer"})
        database.insert("org", {"name": "joined"})
        txn.rollback()
        assert database.count("org") == 0
        assert database.committed_seq == 0
        assert _writer_lock_free(database)

    def test_an_exception_in_a_nested_block_undoes_only_that_block(
        self, tmp_path
    ):
        database = _org_db(tmp_path)
        with database.transaction() as txn:
            txn.insert("org", {"name": "before"})
            with pytest.raises(RuntimeError):
                with database.transaction() as inner:
                    inner.insert("org", {"name": "inner"})
                    database.insert("org", {"name": "inner autocommit"})
                    raise RuntimeError("boom")
            assert txn.is_active
            with database.transaction() as kept:
                kept.insert("org", {"name": "kept"})
            txn.insert("org", {"name": "after"})
        assert sorted(database.query("org").values("name")) == [
            "after", "before", "kept",
        ]
        assert _logged_names(database) == [["before", "kept", "after"]]
        database.close()

    def test_a_failed_autocommit_leaves_the_outer_intact(self):
        database = _org_db()
        with database.transaction() as txn:
            txn.insert("org", {"name": "A"})
            with pytest.raises(UniqueViolation):
                database.insert("org", {"name": "A"})
            txn.insert("org", {"name": "B"})
        assert sorted(database.query("org").values("name")) == ["A", "B"]

    def test_a_nested_commit_leaves_its_rows_to_the_outer(self):
        database = _org_db()
        outer = database.transaction()
        inner = database.transaction()
        inner.insert("org", {"name": "inner"})
        inner.commit()
        assert database.committed_seq == 0
        outer.rollback()
        assert database.count("org") == 0
        assert _writer_lock_free(database)

    def test_other_threads_open_their_own_transaction(self):
        database = _org_db()
        with database.transaction() as txn:
            txn.insert("org", {"name": "mine"})
            done = threading.Event()

            def other():
                database.insert("org", {"name": "theirs"})
                done.set()

            thread = threading.Thread(target=other)
            thread.start()
            # The other thread waits for the writer lock, not joins us.
            assert not done.wait(0.2)
        thread.join(5.0)
        assert done.is_set()
        assert database.committed_seq == 2

    def test_concurrent_threads_never_join_each_other(self):
        """Many threads, a tiny switch interval: every commit holds the
        two rows of exactly one thread's transaction."""
        import sys

        database = _org_db()
        commits = []
        database.on_commit(commits.append)
        threads, rounds = 6, 40

        def work(tag: int) -> None:
            for n in range(rounds):
                with database.transaction() as txn:
                    txn.insert("org", {"name": f"{tag}/{n}/outer"})
                    database.insert("org", {"name": f"{tag}/{n}/joined"})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(tag,))
                for tag in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(commits) == threads * rounds
        for event in commits:
            names = [op.after["name"] for op in event.ops]
            assert len(names) == 2
            assert names[0].rsplit("/", 1)[0] == names[1].rsplit("/", 1)[0]
        assert database.count("org") == 2 * threads * rounds

    @pytest.mark.parametrize("action", [
        lambda db: db.checkpoint(),
        lambda db: db.recover(),
        lambda db: db.apply_replicated_commit(
            {"kind": "commit", "txn": 1, "ops": [], "seq": 1}, seq=1
        ),
        lambda db: db.load_replicated_snapshot({}, seq=1),
    ], ids=["checkpoint", "recover", "replicated_apply", "bootstrap"])
    def test_state_replacing_calls_are_refused_inside_a_transaction(
        self, tmp_path, action
    ):
        """Each re-enters the writer lock; inside an open transaction it
        would persist or stamp that transaction's uncommitted rows."""
        database = _org_db(tmp_path)
        txn = database.transaction()
        txn.insert("org", {"name": "uncommitted"})
        with pytest.raises(TransactionError):
            action(database)
        txn.rollback()
        assert database.committed_seq == 0
        database.checkpoint()
        database.close()
        reopened = _org_db(tmp_path)
        reopened.recover()
        assert reopened.count("org") == 0


class TestNestedSavepoints:
    """Each block names its own savepoints: a nested block can neither
    return to a position the outer marked before it began nor replace
    the outer's savepoint of the same name."""

    def test_a_nested_block_cannot_roll_back_to_an_outer_savepoint(self):
        database = _org_db()
        with database.transaction() as txn:
            txn.savepoint("sp")
            txn.insert("org", {"name": "outer"})
            with database.transaction() as inner:
                inner.insert("org", {"name": "inner"})
                with pytest.raises(TransactionError):
                    inner.rollback_to("sp")
        assert sorted(database.query("org").values("name")) == [
            "inner", "outer",
        ]

    def test_a_nested_savepoint_does_not_replace_the_outer_one(self):
        database = _org_db()
        with database.transaction() as txn:
            txn.insert("org", {"name": "kept"})
            txn.savepoint("sp")
            txn.insert("org", {"name": "outer"})
            with database.transaction() as inner:
                inner.savepoint("sp")
                inner.insert("org", {"name": "inner"})
                inner.rollback_to("sp")
                inner.insert("org", {"name": "inner again"})
            txn.rollback_to("sp")
        assert database.query("org").values("name") == ["kept"]


class TestDeferredLock:
    """``transaction(defer_lock=True)`` takes the writer lock at its
    first write or nested block, not when it opens."""

    def test_the_lock_is_taken_at_the_first_write(self, tmp_path):
        database = _org_db(tmp_path)
        with database.transaction(defer_lock=True) as txn:
            assert database.in_transaction()
            assert _writer_lock_free(database)
            worker = threading.Thread(
                target=database.insert, args=("org", {"name": "theirs"})
            )
            worker.start()
            worker.join(5.0)
            txn.insert("org", {"name": "mine"})
            assert not _writer_lock_free(database)
        assert not database.in_transaction()
        assert _writer_lock_free(database)
        assert _logged_names(database) == [["theirs"], ["mine"]]
        database.close()

    def test_a_nested_block_takes_it_when_it_opens(self):
        """So a block that then takes another lock (the job queue's)
        always holds the writer lock first."""
        database = _org_db()
        with database.transaction(defer_lock=True):
            with database.transaction() as inner:
                assert not _writer_lock_free(database)
                inner.insert("org", {"name": "A"})
        assert database.count("org") == 1
        assert _writer_lock_free(database)

    def test_a_transaction_that_never_writes_commits_nothing(self):
        database = _org_db()
        commits = []
        database.on_commit(commits.append)
        with database.transaction(defer_lock=True):
            assert database.count("org") == 0
        with pytest.raises(RuntimeError):
            with database.transaction(defer_lock=True):
                raise RuntimeError("boom")
        assert commits == []
        assert database.committed_seq == 0
        assert not database.in_transaction()
        assert _writer_lock_free(database)
