"""Snapshot reads on a table an open transaction has written.

The live indexes hold the committed state plus the open transaction's
own writes.  A snapshot whose table has not committed past it answers
from those indexes anyway: the pks the transaction touched join the
candidates and every candidate is resolved at the snapshot's sequence
number with its predicate re-checked.  Every answer must equal a chain
scan at that sequence number, through plain, composite-hash and
composite-ordered indexes, for pending inserts, deletes and updates
that move an indexed key.
"""

import random
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import Column, ColumnType, Database, TableSchema


def make_db() -> Database:
    db = Database(durability="buffered")
    db.create_table(TableSchema(
        "item",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("grp", ColumnType.INT),
            Column("kind", ColumnType.TEXT),
            Column("score", ColumnType.INT),
            Column("tag", ColumnType.TEXT, unique=True),
        ],
        indexes=["grp", ("grp", "kind")],
        ordered=[("kind", "score")],
    ))
    with db.transaction() as txn:
        for i in range(1, 41):
            txn.insert("item", {
                "id": i, "grp": i % 5, "kind": "ab"[i % 2], "score": i,
                "tag": f"t{i}",
            })
    return db


def _queries(snap):
    """(label, query) pairs over every index shape the table has."""
    for grp in range(6):
        yield f"grp={grp}", snap.query("item").where("grp", "=", grp)
        for kind in "ab":
            yield f"grp={grp},kind={kind}", (
                snap.query("item").where("grp", "=", grp).where("kind", "=", kind)
            )
    for kind in "ab":
        yield f"kind={kind},score>=20", (
            snap.query("item").where("kind", "=", kind).where("score", ">=", 20)
        )
        yield f"kind={kind} by score desc limit 3", (
            snap.query("item").where("kind", "=", kind)
            .order_by("score", descending=True).limit(3)
        )
    yield "score<10", snap.query("item").where("score", "<", 10)
    yield "tag=t7", snap.query("item").where("tag", "=", "t7")
    yield "tag=t99", snap.query("item").where("tag", "=", "t99")
    yield "id=6", snap.query("item").where("id", "=", 6)


def _rows(rows):
    return sorted(rows, key=lambda row: row["id"])


def assert_snapshot_equals_scan(snap):
    """Every indexed read at *snap* equals a chain scan at its seq."""
    for (label, query), (_label, scan) in zip(_queries(snap), _queries(snap)):
        scan.without_indexes()
        expected = scan.all()
        if "limit" in label:
            assert query.all() == expected, label
        else:
            assert _rows(query.all()) == _rows(expected), label
        assert query.count() == scan.count(), label
    chain = list(snap.scan("item"))
    assert snap.count("item") == len(chain)
    for grp in range(6):
        expected = [row for row in chain if row["grp"] == grp]
        assert _rows(snap.lookup("item", "grp", grp)) == _rows(expected)
        for kind in "ab":
            expected_pair = [row for row in expected if row["kind"] == kind]
            assert _rows(
                snap.lookup("item", ("grp", "kind"), grp, kind)
            ) == _rows(expected_pair)
    for tag in ("t1", "t6", "t8", "t41", "t99"):
        expected = [row for row in chain if row["tag"] == tag]
        assert snap.lookup("item", "tag", tag) == expected


def _pending(db):
    """One open transaction: an insert, a delete, and updates that move
    plain, composite and unique index keys."""
    txn = db.transaction()
    txn.insert("item", {"id": 41, "grp": 1, "kind": "a", "score": 41, "tag": "t41"})
    txn.delete("item", 8)
    txn.update("item", 6, {"grp": 2, "kind": "a"})        # plain + composite
    txn.update("item", 7, {"score": 1})                   # composite ordered
    txn.update("item", 1, {"tag": "t99"})                 # unique
    return txn


class TestDirtyTable:
    def test_reads_equal_a_chain_scan(self):
        db = make_db()
        txn = _pending(db)
        with db.snapshot() as snap:
            assert db.table("item").dirty
            assert_snapshot_equals_scan(snap)
            # The committed state, not the open transaction's.
            assert snap.get("item", 6)["grp"] == 1
            assert snap.count("item") == 40
            ids = sorted(row["id"] for row in snap.lookup("item", "grp", 3))
            assert ids == [3, 8, 13, 18, 23, 28, 33, 38]
        txn.rollback()
        db.close()

    def test_a_snapshot_opened_before_the_writes_agrees(self):
        db = make_db()
        with db.snapshot() as snap:
            txn = _pending(db)
            assert_snapshot_equals_scan(snap)
            txn.rollback()
        db.close()

    @pytest.mark.parametrize("where", [
        (("grp", "=", 1),),
        (("grp", "=", 1), ("kind", "=", "b")),
        (("kind", "=", "a"), ("score", ">=", 10)),
        (("tag", "=", "t7"),),
    ])
    def test_explain_shows_an_index_plan(self, where):
        db = make_db()
        txn = _pending(db)
        with db.snapshot() as snap:
            query = snap.query("item")
            for column, op, value in where:
                query.where(column, op, value)
            plan = query.explain()
            assert plan["strategy"] != "scan", plan
            assert plan["snapshot_version"] == snap.seq
        txn.rollback()
        db.close()

    def test_a_table_that_committed_past_the_snapshot_still_answers(self):
        db = make_db()
        with db.snapshot() as snap:
            txn = _pending(db)
            txn.commit()
            assert db.table("item").version > snap.seq
            assert_snapshot_equals_scan(snap)
            plan = snap.query("item").where("grp", "=", 1).explain()
            assert plan["strategy"] == "scan"
            assert snap.count("item") == 40
            dirty = _pending_again(db)
            assert_snapshot_equals_scan(snap)
            dirty.rollback()
        db.close()

    def test_cached_snapshot_results_serve_later_live_reads(self):
        """A snapshot query on a dirty table reads the committed state,
        so its result is cached under the committed version: exactly
        what a live read sees after the rollback, and nothing a commit's
        readers can reach."""
        db = make_db()
        txn = _pending(db)
        with db.snapshot() as snap:
            pinned = snap.query("item").where("grp", "=", 1).all()
            assert snap.query("item").where("grp", "=", 1).explain()["cache"] == "hit"
        txn.rollback()
        assert db.query("item").where("grp", "=", 1).all() == pinned
        txn = _pending(db)
        txn.commit()
        live = db.query("item").where("grp", "=", 1).all()
        moved = {row["id"] for row in pinned} - {6} | {41}
        assert {row["id"] for row in live} == moved
        db.close()


def _pending_again(db):
    txn = db.transaction()
    txn.insert("item", {"id": 42, "grp": 1, "kind": "b", "score": 0, "tag": "t42"})
    txn.update("item", 11, {"grp": 4})
    txn.delete("item", 16)
    return txn


_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 5), st.sampled_from("ab"),
              st.integers(0, 50)),
    st.tuples(st.just("delete"), st.integers(1, 50)),
    st.tuples(st.just("update"), st.integers(1, 50), st.integers(0, 5),
              st.sampled_from("ab"), st.integers(0, 50)),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(committed=st.lists(_op, max_size=6), pending=st.lists(_op, max_size=12),
       before=st.booleans())
def test_any_pending_writes_read_like_a_scan(committed, pending, before):
    db = make_db()
    next_id = [100]

    def apply(txn, op):
        table = db.table("item")
        if op[0] == "insert":
            _kind, grp, kind, score = op
            next_id[0] += 1
            txn.insert("item", {"id": next_id[0], "grp": grp, "kind": kind,
                                "score": score, "tag": f"n{next_id[0]}"})
        elif op[1] in table:
            if op[0] == "delete":
                txn.delete("item", op[1])
            else:
                _kind, pk, grp, kind, score = op
                txn.update("item", pk, {"grp": grp, "kind": kind, "score": score})

    with db.transaction() as txn:
        for op in committed:
            apply(txn, op)
    early = db.snapshot() if before else None
    txn = db.transaction()
    for op in pending:
        apply(txn, op)
    with db.snapshot() as snap:
        assert_snapshot_equals_scan(snap)
        if early is not None:
            assert_snapshot_equals_scan(early)
            early.close()
    txn.rollback()
    db.close()


def test_readers_racing_an_open_transaction_agree_with_the_scan():
    """Snapshot readers planning on the live indexes while a writer
    keeps a transaction open, commits, rolls back and prunes: every
    answer still equals the chain scan at the reader's seq."""
    db = make_db()
    stop = threading.Event()
    failures: list = []

    def writer():
        rng = random.Random(7)
        next_id = 1000
        try:
            while not stop.is_set():
                txn = db.transaction()
                for _ in range(rng.randint(1, 6)):
                    pk = rng.randint(1, 60)
                    if rng.random() < 0.3:
                        next_id += 1
                        txn.insert("item", {
                            "id": next_id, "grp": rng.randint(0, 5), "kind": "a",
                            "score": next_id, "tag": f"w{next_id}",
                        })
                    elif pk in db.table("item"):
                        if rng.random() < 0.3:
                            txn.delete("item", pk)
                        else:
                            txn.update("item", pk, {"grp": rng.randint(0, 5)})
                time.sleep(0)
                if rng.random() < 0.5:
                    txn.commit()
                else:
                    txn.rollback()
        except Exception as exc:  # reported to the main thread
            failures.append(exc)
            stop.set()

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                with db.snapshot() as snap:
                    grp = rng.randint(0, 5)
                    query = snap.query("item").where("grp", "=", grp)
                    scan = snap.query("item").where("grp", "=", grp).without_indexes()
                    assert _rows(query.all()) == _rows(scan.all())
                    chain = [row for row in snap.scan("item") if row["grp"] == grp]
                    assert _rows(snap.lookup("item", "grp", grp)) == _rows(chain)
                    assert snap.count("item") == sum(1 for _ in snap.scan("item"))
        except Exception as exc:  # reported to the main thread
            failures.append(exc)
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[0]
    db.close()
