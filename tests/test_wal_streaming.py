"""The streamed commit line: byte fidelity, bounded memory, shared
undo payloads, and the raw-byte reading side of the WAL."""

import datetime as dt
import tempfile
import tracemalloc
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CrashPoint, WalCorruption
from repro.resilience import Fault, FaultPlan, inject
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.wal import _FRAME_BYTES, WriteAheadLog, _encode_payload

MODES = ["always", "group", "buffered"]


def make_schema():
    return TableSchema(
        "item",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("note", ColumnType.TEXT),
            Column("created", ColumnType.DATETIME),
            Column("meta", ColumnType.JSON),
        ],
        indexes=["name"],
    )


def open_db(path, durability="always") -> Database:
    db = Database(path, durability=durability)
    db.create_table(make_schema())
    return db


def wal_lines(db: Database) -> list[bytes]:
    db.wal.sync()
    return db.wal.path.read_bytes().splitlines(keepends=True)


def framed(record) -> bytes:
    """The line the pre-streaming encoder wrote for *record*."""
    body = _encode_payload(record)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n".encode("ascii")


def commit_events(db: Database) -> list:
    events = []
    db.on_commit(events.append)
    return events


# -- byte fidelity -------------------------------------------------------------

_scalars = (
    st.none()
    | st.sampled_from([1, True, 1.0, 0, False, 0.0, "é", "", "a\"b\\c"])
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_values = st.fixed_dictionaries(
    {},
    optional={
        "name": st.text(min_size=1, max_size=8) | st.just("é"),
        "note": st.none() | st.text(max_size=8) | st.just("naïve é"),
        "created": st.none()
        | st.datetimes(
            min_value=dt.datetime(1900, 1, 1),
            max_value=dt.datetime(2100, 1, 1),
        ),
        "meta": _json,
    },
)
_ops = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(1, 6),
    _values,
)
_commits = st.lists(st.lists(_ops, min_size=1, max_size=5), min_size=1, max_size=6)


def _apply(txn, live: set, op: str, pk: int, values: dict) -> None:
    """Apply an abstract op, turned into one the table accepts."""
    if pk not in live:
        txn.insert("item", {"name": "x", **values, "id": pk})
        live.add(pk)
    elif op == "delete":
        txn.delete("item", pk)
        live.discard(pk)
    else:
        txn.update("item", pk, values)


class TestByteFidelity:
    @pytest.mark.parametrize("durability", MODES)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(commits=_commits)
    def test_each_line_is_the_record_it_derives(self, durability, commits):
        with tempfile.TemporaryDirectory() as tmp:
            db = open_db(tmp, durability)
            events = commit_events(db)
            live: set[int] = set()
            for ops in commits:
                with db.transaction() as txn:
                    for op, pk, values in ops:
                        _apply(txn, live, op, pk, values)
            lines = wal_lines(db)
            assert len(lines) == len(events) == len(commits)
            for line, event in zip(lines, events):
                assert line == framed(event.record)
                assert event.nbytes == len(line)
                assert event.record["seq"] == event.seq
            db.close()

    @pytest.mark.parametrize("durability", MODES)
    def test_a_multi_frame_line_is_the_record_it_derives(
        self, tmp_path, durability
    ):
        db = open_db(tmp_path, durability)
        events = commit_events(db)
        with db.transaction() as txn:
            for i in range(1, 1201):
                txn.insert("item", {"id": i, "name": f"n{i}", "note": "é" * 20})
        with db.transaction() as txn:
            for i in range(1, 1201, 2):
                txn.update("item", i, {"meta": {"v": [1, True, 1.0]}})
        (bulk, update) = wal_lines(db)
        assert len(bulk) > 2 * _FRAME_BYTES
        assert [bulk, update] == [framed(e.record) for e in events]
        db.close()
        again = open_db(tmp_path, durability)
        again.recover()
        assert again.count("item") == 1200
        assert again.get("item", 3)["meta"] == {"v": [1, True, 1.0]}
        again.close()

    def test_a_torn_multi_frame_write_loses_only_that_commit(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("item", {"id": 1, "name": "keep"})
        fault = Fault("wal.write", kind="torn_write", at_call=1, fraction=0.7)
        with inject(FaultPlan([fault])):
            with pytest.raises(CrashPoint):
                with db.transaction() as txn:
                    for i in range(2, 1500):
                        txn.insert("item", {"id": i, "name": f"n{i}" * 10})
        del db
        revived = open_db(tmp_path)
        revived.recover()
        assert [row["id"] for row in revived.rows("item")] == [1]
        revived.close()

    def test_replicated_and_marker_lines_keep_their_encoding(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        record = {"kind": "commit", "txn": 3, "seq": 9, "ops": [
            {"op": "insert", "table": "t", "pk": 1, "after": {"s": "é"}},
        ]}
        assert wal.append_replicated(record) == (len(framed(record)), None)
        wal.append_checkpoint_marker("snap.json", seq=9)
        wal.close()
        marker = {"kind": "checkpoint", "snapshot": "snap.json", "seq": 9}
        assert (tmp_path / "w.log").read_bytes() == framed(record) + framed(marker)


# -- bounded memory -------------------------------------------------------------


def test_a_bulk_append_peaks_within_twice_its_line(tmp_path, monkeypatch):
    """One buffered 5 000-row commit's append allocates at most twice
    the line it writes (the dict-then-string encoder took ~8x)."""
    db = open_db(tmp_path, "buffered")
    measured = {}
    append = db.wal.append_commit

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = append(*args, **kwargs)
            measured["peak"] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(db.wal, "append_commit", traced)
    created = dt.datetime(2010, 3, 22, 12, 0)
    with db.transaction() as txn:
        for i in range(1, 5001):
            txn.insert(
                "item",
                {
                    "id": i,
                    "name": f"resource-{i:05d}.raw",
                    "created": created,
                    "meta": {"size": i * 7, "tags": ["raw", "é"]},
                },
            )
    line_bytes = db.wal.size_bytes()
    assert line_bytes > 500_000
    assert measured["peak"] <= 2 * line_bytes
    db.close()


# -- shared undo payloads --------------------------------------------------------


class TestSharedPayloads:
    def test_feed_ops_hold_the_stored_payloads(self):
        db = Database()
        db.create_table(make_schema())
        events = commit_events(db)
        db.insert("item", {"id": 1, "name": "a"})
        inserted = dict(db.table("item").raw_items())[1]
        db.update("item", 1, {"note": "b"})
        updated = dict(db.table("item").raw_items())[1]
        (insert,), (update,) = (event.ops for event in events)
        assert insert.after is inserted
        assert update.before is inserted
        assert update.after is updated

    def test_returned_rows_are_copies(self):
        db = Database()
        db.create_table(make_schema())
        row = db.insert("item", {"id": 1, "name": "a"})
        row["name"] = "changed"
        assert db.get("item", 1)["name"] == "a"
        row = db.update("item", 1, {"note": "n"})
        row["note"] = "changed"
        assert db.get("item", 1)["note"] == "n"
        with db.transaction() as txn:
            row = txn.delete("item", 1)
            row["name"] = "changed"
            txn.rollback()
        assert db.get("item", 1)["name"] == "a"

    def test_rollback_restores_rows_and_indexes(self):
        db = Database()
        db.create_table(make_schema())
        for i in range(1, 5):
            db.insert("item", {"id": i, "name": f"n{i}"})
        before = list(db.rows("item"))
        txn = db.transaction()
        txn.update("item", 1, {"name": "moved"})
        txn.delete("item", 2)
        txn.insert("item", {"id": 9, "name": "n3"})
        txn.update("item", 9, {"name": "fresh"})
        txn.rollback()
        assert list(db.rows("item")) == before
        assert names(db, "moved") == names(db, "fresh") == []
        assert names(db, "n1") == [1] and names(db, "n2") == [2]
        assert names(db, "n3") == [3]
        assert db.verify_integrity() == []

    def test_rollback_to_savepoint_restores_rows_and_indexes(self):
        db = Database()
        db.create_table(make_schema())
        db.insert("item", {"id": 1, "name": "a"})
        with db.transaction() as txn:
            txn.insert("item", {"id": 2, "name": "b"})
            txn.savepoint("sp")
            txn.update("item", 1, {"name": "b"})
            txn.delete("item", 2)
            txn.insert("item", {"id": 3, "name": "c"})
            txn.rollback_to("sp")
        assert [row["id"] for row in db.rows("item")] == [1, 2]
        assert names(db, "a") == [1] and names(db, "b") == [2]
        assert names(db, "c") == []
        assert db.verify_integrity() == []


def names(db, name):
    return sorted(db.query("item").where("name", "=", name).values("id"))


# -- reading raw bytes ------------------------------------------------------------


def raw_line(body: bytes) -> bytes:
    """A line whose CRC matches *body*'s bytes, whatever they are."""
    return b"%08x " % zlib.crc32(body) + body + b"\n"


class TestRawReading:
    def test_invalid_utf8_with_a_matching_crc_is_a_bad_line(self, tmp_path):
        path = tmp_path / "w.log"
        good = raw_line(b'{"kind":"commit","ops":[],"txn":1}')
        bad = raw_line(b'{"kind":"commit","ops":[],"txn":2,"x":"\xff"}')
        path.write_bytes(good + bad)
        wal = WriteAheadLog(path)
        assert [r["txn"] for r in wal.records()] == [1]
        assert wal.truncate_torn_tail() == 1
        assert path.read_bytes() == good
        wal.close()

    def test_invalid_utf8_before_an_intact_record_is_corruption(self, tmp_path):
        path = tmp_path / "w.log"
        path.write_bytes(
            raw_line(b'{"kind":"commit","ops":[],"txn":1,"x":"\xc3"}')
            + raw_line(b'{"kind":"commit","ops":[],"txn":2}')
        )
        wal = WriteAheadLog(path)
        with pytest.raises(WalCorruption):
            list(wal.records())
        wal.close()

    def test_truncation_keeps_the_intact_lines_bytes(self, tmp_path):
        # A line in a non-canonical spelling (spaces, key order) stays
        # as written: healing cuts the file, it does not re-encode it.
        path = tmp_path / "w.log"
        kept = raw_line(b'{"txn": 1, "ops": [], "kind": "commit"}') + b"\n"
        path.write_bytes(kept + b"0bad0bad {torn\n" + raw_line(b'{"txn":2}'))
        wal = WriteAheadLog(path)
        assert wal.truncate_torn_tail() == 1
        assert path.read_bytes() == kept
        wal._append_record("commit", {"txn": 3, "ops": []})
        assert [r["txn"] for r in wal.records()] == [1, 3]
        wal.close()
