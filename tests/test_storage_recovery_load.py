"""Snapshot loading: recovery and replica bootstrap through ``Table.load_rows``.

A checkpoint is loaded one table at a time by one loader.  These tests
pin what it must keep from the row-by-row insert path it replaced:
identical rows, indexes, statistics and versions; every constraint
check with its exception type; the statistics feed for snapshots that
carry no sampler state; and snapshot isolation across a replica
bootstrap.
"""

from __future__ import annotations

import datetime as dt
import gc
import json
import random

import pytest

from repro.errors import (
    CheckViolation,
    ForeignKeyViolation,
    NotNullViolation,
    PrimaryKeyViolation,
    SchemaError,
    UniqueViolation,
)
from repro.storage import (
    Column,
    ColumnType,
    Database,
    TableSchema,
    TableStatistics,
)
from repro.storage.database import SNAPSHOT_META_KEY, SNAPSHOT_NAME
from repro.storage.index import OrderedIndex
from repro.storage.schema import CheckConstraint
from repro.storage.table import Table
from repro.storage.types import coerce, from_jsonable

INT, FLOAT, TEXT, BOOL = ColumnType.INT, ColumnType.FLOAT, ColumnType.TEXT, ColumnType.BOOL
DATETIME, JSON = ColumnType.DATETIME, ColumnType.JSON


def make_db(path=None) -> Database:
    """Every column type, unique and composite-unique constraints, FKs
    (one self-referencing, one from a TEXT-keyed table), hash, composite
    hash, ordered and composite ordered indexes, column and table checks."""
    db = Database(path, durability="buffered")
    db.create_table(TableSchema(
        "lab",
        [
            Column("id", INT, primary_key=True),
            Column("name", TEXT, nullable=False, unique=True),
            Column("founded", DATETIME),
            Column("score", FLOAT),
            Column("active", BOOL, nullable=False, default=True),
            Column("meta", JSON),
        ],
        indexes=["founded", "score"],
        ordered=[("active", "founded")],
    ))
    db.create_table(TableSchema(
        "item",
        [
            Column("id", INT, primary_key=True),
            Column("lab_id", INT, foreign_key="lab.id"),
            Column("parent_id", INT, foreign_key="item.id"),
            Column("code", TEXT, nullable=False),
            Column("batch", INT, nullable=False, check=lambda v: v >= 0),
            Column("created", DATETIME, nullable=False),
            Column("payload", JSON),
        ],
        indexes=["lab_id", ("lab_id", "batch")],
        ordered=[("batch", "created")],
        unique_together=[("lab_id", "code")],
        checks=[CheckConstraint("ck_item_code", lambda row: row["code"] != "")],
    ))
    db.create_table(TableSchema(
        "tag",
        [
            Column("name", TEXT, primary_key=True),
            Column("item_id", INT, foreign_key="item.id", nullable=False),
            Column("weight", FLOAT, default=1.5),
        ],
        indexes=["item_id"],
    ))
    return db


def when(rng: random.Random) -> dt.datetime:
    stamp = dt.datetime(2009, 1, 1) + dt.timedelta(
        days=rng.randrange(400), seconds=rng.randrange(86400)
    )
    # Half with microseconds, half without: isoformat() drops ".000000".
    return stamp.replace(microsecond=rng.randrange(1, 10**6)) if rng.random() < 0.5 else stamp


def seed(db: Database, rng: random.Random, items: int = 400) -> None:
    """Enough item rows to overflow the 256-slot reservoirs."""
    with db.transaction() as txn:
        for i in range(1, 13):
            txn.insert("lab", {
                "id": i,
                "name": f"lab-{i}",
                "founded": when(rng) if i % 4 else None,
                "score": rng.random() if i % 3 else None,
                "active": i % 5 != 0,
                "meta": {"rooms": [rng.randrange(9) for _ in range(3)], "head": f"h{i}"}
                if i % 2 else None,
            })
    for start in range(1, items + 1, 100):
        with db.transaction() as txn:
            for i in range(start, min(start + 100, items + 1)):
                txn.insert("item", {
                    "id": i,
                    "lab_id": rng.randrange(1, 13) if rng.random() < 0.9 else None,
                    "parent_id": rng.randrange(1, i) if i > 1 and rng.random() < 0.3 else None,
                    "code": f"c{i}",
                    "batch": rng.randrange(20),
                    "created": when(rng),
                    "payload": rng.choice([None, {"n": i, "tags": ["a", "b"]}, [i, 2.5], "x"]),
                })
    with db.transaction() as txn:
        for i in range(40):
            values = {"name": f"t{i}", "item_id": rng.randrange(1, items + 1)}
            if i % 3:
                values["weight"] = rng.random()
            txn.insert("tag", values)


def build(path, rng_seed: int = 7) -> Database:
    """Seeded database, updated and deleted rows, checkpointed, with a
    WAL tail of inserts, an update and a delete after the checkpoint."""
    rng = random.Random(rng_seed)
    db = make_db(path)
    seed(db, rng)
    db.update("item", 5, {"batch": 19, "payload": {"moved": True}})
    db.update("lab", 2, {"score": 0.25, "founded": dt.datetime(2009, 3, 3, 3, 3, 3, 3)})
    db.insert("item", {"id": 900, "code": "gone", "batch": 1, "created": when(rng)})
    db.delete("item", 900)
    db.checkpoint()
    with db.transaction() as txn:
        for i in range(401, 406):
            txn.insert("item", {
                "id": i, "lab_id": 3, "code": f"tail{i}", "batch": i % 7,
                "created": when(rng), "payload": {"tail": i},
            })
    db.update("item", 7, {"lab_id": None, "batch": 0})
    db.insert("item", {"id": 901, "code": "gone-too", "batch": 2, "created": when(rng)})
    db.delete("item", 901)
    db.insert("tag", {"name": "tail-tag", "item_id": 402})
    return db


def recovered(path) -> Database:
    db = make_db(path)
    db.recover()
    return db


def index_content(index) -> tuple:
    """Every key with its pk set (in key order for an ordered index),
    and the entry count, read through the public surface."""
    if isinstance(index, OrderedIndex):
        return [
            (index.raw_key(key), set(pks)) for key, pks in index.seek()
        ], len(index)
    return {key: index.lookup(key) for key, _bucket in index.entries()}, len(index)


def state(db: Database, name: str) -> dict:
    table = db.table(name)
    indexes = table._unique_indexes + table.hash_indexes() + table.ordered_indexes()
    return {
        "rows": dict(table.raw_items()),
        "live": len(table),
        "indexes": {index.name: index_content(index) for index in indexes},
        "stats": table.stats_state(),
    }


QUERIES = [
    lambda db: db.query("item").where("lab_id", "=", 3),
    lambda db: db.query("item").where("lab_id", "=", 2).where("batch", "=", 4),
    lambda db: db.query("item").where("batch", ">=", 15).order_by("batch").limit(10),
    lambda db: db.query("item").where("code", "=", "c17"),
    lambda db: db.query("item").where("created", "<", dt.datetime(2009, 2, 1)),
    lambda db: db.query("lab").where("name", "=", "lab-3"),
    lambda db: db.query("lab").where("active", "=", True)
    .where("founded", ">", dt.datetime(2009, 6, 1)),
    lambda db: db.query("lab").where("score", "<", 0.5),
    lambda db: db.query("tag").where("item_id", "=", 10),
    lambda db: db.query("tag").where("weight", ">", 0.5),
]


def plans(db: Database) -> list:
    out = []
    for make in QUERIES:
        explained = make(db).explain()
        out.append((explained["strategy"], explained["estimated_rows"]))
    return out


def without_samples(table_state: dict) -> dict:
    stats = {
        column: {k: v for k, v in sampled.items() if k != "reservoir"}
        for column, sampled in table_state["stats"].items()
    }
    return {**table_state, "stats": stats}


class TestRecoveredStateEqualsOriginal:
    @pytest.mark.parametrize("tail", [False, True], ids=["snapshot", "wal_tail"])
    def test_rows_indexes_statistics_plans_and_versions(self, tmp_path, tail):
        original = build(tmp_path)
        if not tail:
            original.checkpoint()
        original.close()
        db = recovered(tmp_path)
        for name in original.table_names():
            got, want = state(db, name), state(original, name)
            if tail:
                # A restored sampler restarts its per-column RNG from the
                # seed, so tail inserts into a full reservoir replace other
                # slots than they did before the crash; counters agree.
                got, want = without_samples(got), without_samples(want)
            assert got == want, name
        if not tail:
            assert plans(db) == plans(original)
        assert db.committed_seq == original.committed_seq
        # Every table the load or the WAL tail touched is settled at one
        # fresh sequence number (1 in a new process); untouched ones stay 0.
        assert db.version_vector() == {"lab": 1, "item": 1, "tag": 1}
        assert db.verify_integrity() == []
        assert not any(db.table_dirty(name) for name in db.table_names())
        db.close()

    def test_a_second_restart_is_identical(self, tmp_path):
        build(tmp_path).close()
        first = recovered(tmp_path)
        first.close()
        second = recovered(tmp_path)
        for name in first.table_names():
            assert state(second, name) == state(first, name)
        assert second.version_vector() == first.version_vector()
        assert second.committed_seq == first.committed_seq
        second.close()

    def test_restart_checkpoint_is_byte_identical(self, tmp_path):
        db = build(tmp_path)
        db.checkpoint()
        db.close()
        snapshot = tmp_path / SNAPSHOT_NAME
        before = snapshot.read_bytes()
        again = recovered(tmp_path)
        again.checkpoint()
        again.close()
        assert snapshot.read_bytes() == before

    def test_snapshot_load_does_not_insert_row_by_row(self, tmp_path, monkeypatch):
        db = build(tmp_path)
        db.checkpoint()  # no WAL tail: only the snapshot loads
        db.close()

        def refuse(self, values):
            raise AssertionError("snapshot load went through apply_insert")

        monkeypatch.setattr(Table, "apply_insert", refuse)
        db = recovered(tmp_path)
        assert db.statistics()["total_rows"] == 12 + 405 + 41
        db.close()

    def test_collector_is_restored(self, tmp_path):
        build(tmp_path).close()
        assert gc.isenabled()
        recovered(tmp_path).close()
        assert gc.isenabled()
        gc.disable()
        try:
            recovered(tmp_path).close()
            assert not gc.isenabled()
        finally:
            gc.enable()


def edit_snapshot(path, edit, form="columns") -> None:
    """Apply *edit* to the checkpoint's tables as lists of row dicts,
    then write them back as *form*: ``"columns"`` (one header per table,
    one value list per row) or ``"dicts"`` (the list of row dicts that
    checkpoints held before the header).  In the header form a column
    some edited row lacks is left out of the header altogether, and a
    column only some rows carry is null in the others."""
    target = path / SNAPSHOT_NAME
    snapshot = json.loads(target.read_text(encoding="utf-8"))
    headers = {}
    for name, table in snapshot.items():
        if name != SNAPSHOT_META_KEY:
            headers[name] = table["columns"]
            snapshot[name] = [dict(zip(table["columns"], row)) for row in table["rows"]]
    edit(snapshot)
    if form == "columns":
        for name, rows in snapshot.items():
            if name == SNAPSHOT_META_KEY:
                continue
            known = headers.get(name, [])
            header = [c for c in known if all(c in row for row in rows)]
            header += list(dict.fromkeys(c for row in rows for c in row if c not in known))
            snapshot[name] = {
                "columns": header,
                "rows": [[row.get(c) for c in header] for row in rows],
            }
    target.write_text(json.dumps(snapshot), encoding="utf-8")


def first_with(rows, column):
    return next(row for row in rows if row[column] is not None)


def _duplicate_unique_pair(snapshot):
    first = first_with(snapshot["item"], "lab_id")
    other = next(r for r in snapshot["item"] if r is not first)
    other["lab_id"], other["code"] = first["lab_id"], first["code"]


EDITS = {
    "not_null": (lambda s: s["item"][0].update(code=None), NotNullViolation),
    "text_pk_missing": (lambda s: s["tag"][0].pop("name"), NotNullViolation),
    "column_check": (lambda s: s["item"][0].update(batch=-1), CheckViolation),
    "table_check": (lambda s: s["item"][0].update(code=""), CheckViolation),
    "foreign_key": (lambda s: s["item"][0].update(lab_id=999), ForeignKeyViolation),
    "self_foreign_key": (
        lambda s: s["item"][0].update(parent_id=10**6), ForeignKeyViolation
    ),
    "unique": (lambda s: s["lab"][1].update(name=s["lab"][0]["name"]), UniqueViolation),
    "unique_together": (_duplicate_unique_pair, UniqueViolation),
    "duplicate_pk": (lambda s: s["lab"].append(dict(s["lab"][0])), PrimaryKeyViolation),
    "bad_type": (lambda s: s["item"][0].update(batch="seven"), SchemaError),
    "bool_for_int": (lambda s: s["item"][0].update(batch=True), SchemaError),
    "aware_datetime": (
        lambda s: s["item"][0].update(created="2010-01-01T00:00:00+01:00"), SchemaError
    ),
    "unknown_table": (lambda s: s.update(nope=[]), SchemaError),
}


#: The two checkpoint forms ``edit_snapshot`` writes.
FORMS = ["columns", "dicts"]


class TestValidationKept:
    def check(self, path, case, form):
        db = build(path)
        db.checkpoint()
        db.close()
        edit, expected = EDITS[case]
        edit_snapshot(path, edit, form)
        with pytest.raises(expected):
            recovered(path)
        assert gc.isenabled()

    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_hand_edited_snapshot_raises_the_same_type(self, tmp_path, case):
        self.check(tmp_path, case, "columns")

    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_hand_edited_row_dicts_raise_the_same_type(self, tmp_path, case):
        self.check(tmp_path, case, "dicts")

    def test_loosely_written_values_still_load(self, tmp_path):
        def loosen(snapshot):
            row = snapshot["item"][0]
            row["batch"] = float(row["batch"])          # 3.0 into an INT column
            row["created"] = "2009-05-06 07:08:09"      # space separator
            snapshot["lab"][0]["score"] = 1             # int into a FLOAT column
            snapshot["lab"][0].pop("active")            # default applies
            snapshot["lab"][0]["retired"] = "x"         # dropped column

        for form in FORMS:
            path = tmp_path / form
            db = build(path)
            db.checkpoint()
            db.close()
            edit_snapshot(path, loosen, form)
            db = recovered(path)
            item = db.get("item", 1)
            assert isinstance(item["batch"], int)
            assert item["created"] == dt.datetime(2009, 5, 6, 7, 8, 9)
            lab = db.get("lab", 1)
            assert lab["score"] == 1.0 and isinstance(lab["score"], float)
            assert lab["active"] is True
            assert "retired" not in lab
            db.close()


def test_a_row_off_its_header_is_refused(tmp_path):
    db = build(tmp_path)
    db.checkpoint()
    db.close()
    target = tmp_path / SNAPSHOT_NAME
    pristine = target.read_text(encoding="utf-8")

    def short_row(item):
        item["rows"][3].pop()

    def unhashable_name(item):
        item["columns"][1] = [item["columns"][1]]

    def repeated_name(item):
        item["columns"][1] = item["columns"][2]

    def numbered_name(item):
        item["columns"][1] = 1

    for edit in (short_row, unhashable_name, repeated_name, numbered_name):
        snapshot = json.loads(pristine)
        edit(snapshot["item"])
        target.write_text(json.dumps(snapshot), encoding="utf-8")
        with pytest.raises(SchemaError, match="header"):
            recovered(tmp_path)


class TestStatisticsWithoutSavedState:
    @pytest.mark.parametrize("dropped", ["all", "tag"])
    def test_statistics_equal_a_row_order_feed(self, tmp_path, dropped):
        original = make_db(tmp_path)
        seed(original, random.Random(11))
        original.checkpoint()
        original.close()

        def strip(snapshot):
            if dropped == "all":
                snapshot.pop(SNAPSHOT_META_KEY)
            else:
                del snapshot[SNAPSHOT_META_KEY]["stats"][dropped]

        edit_snapshot(tmp_path, strip)
        db = recovered(tmp_path)
        fed_tables = original.table_names() if dropped == "all" else [dropped]
        for name in original.table_names():
            table = db.table(name)
            if name in fed_tables:
                expected = TableStatistics(table.schema.column_names)
                for row in table.rows():
                    expected.on_insert(row)
                assert table.stats_state() == expected.state()
            else:
                assert table.stats_state() == original.table(name).stats_state()
        db.close()


def by_id(rows: list) -> list:
    return sorted(rows, key=lambda row: row["id"])


def primary_and_replica() -> tuple[Database, Database]:
    """A primary five commits in, and a replica holding other rows at a
    lower sequence number."""
    primary = make_db()
    seed(primary, random.Random(3), items=120)
    primary.update("item", 4, {"batch": 7})
    replica = make_db()
    seed(replica, random.Random(4), items=60)
    assert replica.committed_seq < primary.committed_seq
    return primary, replica


def assert_same_tables(replica: Database, primary: Database) -> None:
    for name in primary.table_names():
        live, expected = state(replica, name), state(primary, name)
        assert live["rows"] == expected["rows"]
        assert live["indexes"] == expected["indexes"]
    assert replica.verify_integrity() == []
    assert replica.query("item").where("lab_id", "=", 3).all() == (
        primary.query("item").where("lab_id", "=", 3).all()
    )


class TestReplicaBootstrap:
    def test_pinned_snapshot_reads_through_a_bootstrap(self):
        primary, replica = primary_and_replica()
        pinned = replica.snapshot()
        before = {name: list(pinned.scan(name)) for name in replica.table_names()}
        before_lookup = by_id(pinned.lookup("item", "lab_id", 3))

        seq, tables = primary.export_snapshot()
        replica.load_replicated_snapshot(json.loads(json.dumps(tables)), seq=seq)

        for name in replica.table_names():
            assert list(pinned.scan(name)) == before[name]
        assert by_id(pinned.lookup("item", "lab_id", 3)) == before_lookup
        pinned.close()
        assert replica.committed_seq == seq
        assert_same_tables(replica, primary)

    def test_bootstrap_mirrors_the_primary_version_vector(self):
        primary, replica = primary_and_replica()
        seq, tables = primary.export_snapshot()
        replica.load_replicated_snapshot(
            json.loads(json.dumps(tables)), seq=seq,
            versions=primary.version_vector_at(seq),
        )
        assert replica.committed_seq == seq
        assert replica.version_vector() == primary.version_vector_at(seq)
        assert_same_tables(replica, primary)


class TestDatetimeDecoding:
    def test_coerce_stays_strict(self):
        with pytest.raises(SchemaError):
            coerce("2010-01-01T00:00:00+01:00", DATETIME)
        with pytest.raises(SchemaError):
            from_jsonable("2010-01-01T00:00:00+01:00", DATETIME)
        with pytest.raises(SchemaError):
            from_jsonable("not a date", DATETIME)

    @pytest.mark.parametrize("text", [
        "2010-01-02T03:04:05",
        "2010-01-02T03:04:05.000006",
        "2010-01-02T03:04:05.5",
        "2010-01-02 03:04:05",
        "2010-01-02",
        "2010-1-2T3:4:5",
    ])
    def test_decode_agrees_with_coerce(self, text):
        assert from_jsonable(text, DATETIME) == coerce(text, DATETIME)
