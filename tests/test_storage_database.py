"""Database-level behaviour: registry, statistics, listeners, misc."""

import datetime as dt
import gc
import json
import sys
import tracemalloc

import pytest

from repro.errors import SchemaError
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.database import SNAPSHOT_META_KEY


def simple_schema(name="t"):
    return TableSchema(
        name,
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("v", ColumnType.TEXT),
        ],
    )


class TestTableRegistry:
    def test_create_and_lookup(self, db: Database):
        db.create_table(simple_schema())
        assert db.has_table("t")
        assert db.table("t").name == "t"
        assert db.table_names() == ["t"]

    def test_duplicate_table_rejected(self, db):
        db.create_table(simple_schema())
        with pytest.raises(SchemaError):
            db.create_table(simple_schema())

    def test_unknown_table(self, db):
        with pytest.raises(SchemaError):
            db.table("ghost")
        with pytest.raises(SchemaError):
            db.query("ghost")

    def test_referencing_map(self, db):
        db.create_table(simple_schema("parent"))
        db.create_table(
            TableSchema(
                "child",
                [
                    Column("id", ColumnType.INT, primary_key=True),
                    Column("parent_id", ColumnType.INT, foreign_key="parent.id"),
                ],
            )
        )
        assert db.referencing("parent") == [("child", "parent_id", "restrict")]
        assert db.referencing("child") == []


class TestStatistics:
    def test_row_counts(self, db):
        db.create_table(simple_schema())
        db.insert("t", {"v": "a"})
        db.insert("t", {"v": "b"})
        stats = db.statistics()
        assert stats["tables"] == {"t": 2}
        assert stats["total_rows"] == 2
        assert stats["transactions"] == 2
        assert stats["wal_bytes"] == 0  # in-memory

    def test_get_or_none(self, db):
        db.create_table(simple_schema())
        row = db.insert("t", {"v": "a"})
        assert db.get_or_none("t", row["id"]) == row
        assert db.get_or_none("t", 999) is None


class TestRecoverPreconditions:
    def test_recover_requires_directory(self, db):
        with pytest.raises(SchemaError):
            db.recover()

    def test_recover_rejects_unknown_snapshot_table(self, tmp_path):
        db = Database(tmp_path)
        db.create_table(simple_schema())
        db.insert("t", {"v": "x"})
        db.checkpoint()
        db.close()

        fresh = Database(tmp_path)
        # Schema for "t" never declared.
        with pytest.raises(SchemaError):
            fresh.recover()


class TestRowsIteration:
    def test_rows_are_copies(self, db):
        db.create_table(simple_schema())
        db.insert("t", {"v": "a"})
        for row in db.rows("t"):
            row["v"] = "mutated"
        assert db.get("t", 1)["v"] == "a"

    def test_insertion_order(self, db):
        db.create_table(simple_schema())
        for v in ("x", "y", "z"):
            db.insert("t", {"v": v})
        assert [r["v"] for r in db.rows("t")] == ["x", "y", "z"]


    def test_scans_hold_no_pair_per_row(self, db):
        # A scan walks an atomic copy of the row map, whose items
        # iterator reuses one (pk, head) tuple: its peak stays below
        # the tuples alone of a list(items()) snapshot.
        db.create_table(simple_schema())
        with db.transaction() as txn:
            for i in range(5000):
                txn.insert("t", {"v": f"v{i}"})
        table = db.table("t")
        seq = db.committed_seq
        pair_per_row = 5000 * sys.getsizeof((0, None))
        for scan in (table.pks, lambda: sum(1 for _ in table.items_at(seq))):
            gc.collect()
            tracemalloc.start()
            try:
                scan()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < pair_per_row, (scan, peak, pair_per_row)
        assert len(table.pks()) == 5000


class TestCheckpointStream:
    """A checkpoint is written a chunk of rows at a time, and the file
    is byte for byte the one-shot ``json.dumps`` of the whole document."""

    def make(self, path, rows):
        db = Database(path, durability="buffered")
        db.create_table(
            TableSchema(
                "wide",
                [
                    Column("id", ColumnType.INT, primary_key=True),
                    Column("name", ColumnType.TEXT),
                    Column("score", ColumnType.FLOAT),
                    Column("at", ColumnType.DATETIME),
                    Column("meta", ColumnType.JSON),
                ],
            )
        )
        db.create_table(simple_schema("empty"))
        db.create_table(simple_schema("small"))
        with db.transaction() as txn:
            for i in range(rows):
                txn.insert(
                    "wide",
                    {
                        "name": f"résumé {i}" if i % 3 else None,
                        "score": i / 7,
                        "at": dt.datetime(2010, 1, 1 + i % 28, i % 24),
                        "meta": {"i": i, "tags": ["a", "☃"]} if i % 2 else None,
                    },
                )
            txn.insert("small", {"v": "only"})
        return db

    def test_file_is_the_one_shot_encoding(self, tmp_path):
        db = self.make(tmp_path, 2345)
        db.delete("wide", 7)
        seq = db.committed_seq
        # The document as one dict, encoded in one call.
        document = {
            SNAPSHOT_META_KEY: {
                "seq": seq,
                "stats": {
                    name: db.table(name).stats_state() for name in db.table_names()
                },
            }
        }
        for name in db.table_names():
            columns = db.table(name).schema.column_names
            document[name] = {
                "columns": columns,
                "rows": [
                    [db._encode_row_for_wal(name, row)[c] for c in columns]
                    for row in db.table(name).rows()
                ],
            }
        expected = json.dumps(document, separators=(",", ":"), default=str)
        path = db.checkpoint()
        assert path.read_text(encoding="utf-8") == expected
        db.close()
        restored = Database(tmp_path)
        self.make_schemas(restored)
        restored.recover()
        assert restored.count("wide") == 2344 and restored.count("small") == 1
        restored.close()

    def make_schemas(self, db):
        source = self.make(None, 0)
        for name in source.table_names():
            db.create_table(source.table(name).schema)

    def test_peak_memory_stays_well_below_the_file(self, tmp_path):
        db = self.make(tmp_path, 6000)
        gc.collect()
        tracemalloc.start()
        try:
            path = db.checkpoint()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 500_000
        assert peak < size / 2, (peak, size)
        db.close()
