"""Durability: WAL append, checkpointing, recovery, torn-tail healing."""

import datetime as dt
import json
import zlib

import pytest

from repro.errors import CrashPoint, SchemaError, WalCorruption
from repro.resilience import WAL_SITES, Fault, FaultPlan, inject
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.wal import WriteAheadLog


def make_schema():
    return TableSchema(
        "item",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("created", ColumnType.DATETIME),
            Column("meta", ColumnType.JSON),
        ],
        indexes=["name"],
    )


def open_db(path) -> Database:
    db = Database(path)
    db.create_table(make_schema())
    return db


class TestRecovery:
    def test_inserts_survive_reopen(self, tmp_path):
        db = open_db(tmp_path)
        db.insert(
            "item",
            {
                "name": "raw1",
                "created": dt.datetime(2010, 1, 5, 12, 0),
                "meta": {"instrument": "GeneChip"},
            },
        )
        db.close()

        db2 = open_db(tmp_path)
        stats = db2.recover()
        assert stats["wal_txns"] == 1
        row = db2.get("item", 1)
        assert row["name"] == "raw1"
        assert row["created"] == dt.datetime(2010, 1, 5, 12, 0)
        assert row["meta"] == {"instrument": "GeneChip"}

    def test_updates_and_deletes_replay(self, tmp_path):
        db = open_db(tmp_path)
        a = db.insert("item", {"name": "a"})
        b = db.insert("item", {"name": "b"})
        db.update("item", a["id"], {"name": "a2"})
        db.delete("item", b["id"])
        db.close()

        db2 = open_db(tmp_path)
        db2.recover()
        assert db2.count("item") == 1
        assert db2.get("item", a["id"])["name"] == "a2"

    def test_rolled_back_txn_not_in_wal(self, tmp_path):
        db = open_db(tmp_path)
        txn = db.transaction()
        txn.insert("item", {"name": "ghost"})
        txn.rollback()
        db.insert("item", {"name": "real"})
        db.close()

        db2 = open_db(tmp_path)
        db2.recover()
        assert db2.query("item").values("name") == ["real"]

    def test_id_sequence_continues_after_recovery(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("item", {"name": "a"})
        db.insert("item", {"name": "b"})
        db.close()

        db2 = open_db(tmp_path)
        db2.recover()
        row = db2.insert("item", {"name": "c"})
        assert row["id"] == 3

    def test_stray_two_phase_records_replay_as_presumed_abort(self, tmp_path):
        # Logs written while the engine had a two-phase commit can hold
        # prepare/abort/decision records.  Only commit records replay:
        # the unterminated prepare is presumed aborted, even though a
        # decision record in the same log says "commit".
        def insert(pk, name):
            return {"op": "insert", "table": "item", "pk": pk,
                    "after": {"id": pk, "name": name}}

        records = [
            {"kind": "commit", "txn": 1, "seq": 1, "ops": [insert(1, "a")]},
            {"kind": "prepare", "txn": 2, "gtid": "g-1",
             "ops": [insert(2, "prepared")]},
            {"kind": "abort", "gtid": "g-0"},
            {"kind": "decision", "gtid": "g-1", "outcome": "commit",
             "shards": [0, 1]},
            {"kind": "commit", "txn": 3, "seq": 4,
             "ops": [insert(3, "b"),
                     {"op": "update", "table": "item", "pk": 1,
                      "after": {"name": "a2"}}]},
        ]
        with open(tmp_path / "wal.log", "w", encoding="utf-8") as fh:
            for record in records:
                body = json.dumps(record, sort_keys=True, separators=(",", ":"))
                fh.write(f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x} {body}\n")

        db = open_db(tmp_path)
        stats = db.recover()
        assert stats["wal_txns"] == 2
        assert db.query("item").order_by("id").values("name") == ["a2", "b"]
        assert db.get_or_none("item", 2) is None
        assert db.committed_seq == 4
        assert db.verify_integrity() == []

    def test_indexes_rebuilt_after_recovery(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("item", {"name": "findme"})
        db.close()

        db2 = open_db(tmp_path)
        db2.recover()
        plan = db2.query("item").where("name", "=", "findme").explain()
        assert plan["strategy"].startswith("index:")
        assert db2.query("item").where("name", "=", "findme").count() == 1


class TestCheckpoint:
    def test_checkpoint_resets_wal(self, tmp_path):
        db = open_db(tmp_path)
        for i in range(20):
            db.insert("item", {"name": f"n{i}"})
        size_before = (tmp_path / "wal.log").stat().st_size
        db.checkpoint()
        size_after = (tmp_path / "wal.log").stat().st_size
        assert size_after < size_before
        db.close()

        db2 = open_db(tmp_path)
        stats = db2.recover()
        assert stats["snapshot_rows"] == 20
        assert db2.count("item") == 20

    def test_commits_after_checkpoint_replay_on_top(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("item", {"name": "old"})
        db.checkpoint()
        db.insert("item", {"name": "new"})
        db.close()

        db2 = open_db(tmp_path)
        stats = db2.recover()
        assert stats["snapshot_rows"] == 1
        assert stats["wal_txns"] == 1
        assert db2.count("item") == 2

    def test_checkpoint_requires_directory(self):
        from repro.errors import SchemaError

        db = Database()
        with pytest.raises(SchemaError):
            db.checkpoint()


class TestTornTail:
    def test_torn_final_record_is_discarded(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("item", {"name": "safe"})
        db.insert("item", {"name": "casualty"})
        db.close()

        # Simulate a crash that tore the last append.
        wal_path = tmp_path / "wal.log"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-15])

        db2 = open_db(tmp_path)
        stats = db2.recover()
        assert stats["wal_txns"] == 1
        assert db2.query("item").values("name") == ["safe"]

    def test_recovery_heals_file_for_future_commits(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("item", {"name": "safe"})
        db.close()
        wal_path = tmp_path / "wal.log"
        with open(wal_path, "a") as fh:
            fh.write("deadbeef {torn")

        db2 = open_db(tmp_path)
        db2.recover()
        db2.insert("item", {"name": "after"})
        db2.close()

        db3 = open_db(tmp_path)
        db3.recover()
        assert sorted(db3.query("item").values("name")) == ["after", "safe"]

    def test_mid_file_corruption_raises(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("item", {"name": "one"})
        db.insert("item", {"name": "two"})
        db.close()

        wal_path = tmp_path / "wal.log"
        lines = wal_path.read_text().splitlines()
        lines[0] = "00000000 {corrupt}"
        wal_path.write_text("\n".join(lines) + "\n")

        db2 = open_db(tmp_path)
        with pytest.raises(WalCorruption):
            db2.recover()


class TestWalFile:
    def test_records_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal._append_record("commit", {"txn": 1, "ops": []})
        wal._append_record("checkpoint", {"snapshot": "s"})
        records = list(wal.records())
        assert [r["kind"] for r in records] == ["commit", "checkpoint"]
        wal.close()

    def test_empty_file_yields_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        assert list(wal.records()) == []
        wal.close()

    def test_size_bytes(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        assert wal.size_bytes() == 0
        wal._append_record("commit", {"txn": 1, "ops": []})
        assert wal.size_bytes() > 0
        wal.close()


class TestNonDurable:
    def test_durable_false_skips_wal(self, tmp_path):
        db = Database(tmp_path, durable=False)
        db.create_table(make_schema())
        db.insert("item", {"name": "x"})
        assert not (tmp_path / "wal.log").exists()

    def test_statistics_reports_wal_bytes(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("item", {"name": "x"})
        stats = db.statistics()
        assert stats["wal_bytes"] > 0
        assert stats["tables"]["item"] == 1
        assert stats["total_rows"] == 1


class TestCompactEncoding:
    """Commit records are redo-only: an insert carries its row, as
    ``[table, values]`` under the table's column header, an update
    ``pk`` + the columns it changed, a delete ``pk`` alone."""

    def test_insert_update_delete_images(self, tmp_path):
        db = open_db(tmp_path)
        row = db.insert("item", {"name": "a", "meta": {"k": 1}})
        db.update("item", row["id"], {"name": "b"})
        db.delete("item", row["id"])
        records = list(db._wal.records())
        (table, values), *ops = [op for rec in records for op in rec["ops"]]
        by_kind = {op["op"]: op for op in ops}
        assert all("before" not in op for op in ops)
        assert table == "item"
        header = records[0]["columns"]["item"]
        assert dict(zip(header, values)) == {
            "id": row["id"], "name": "a", "created": None, "meta": {"k": 1},
        }
        assert all("columns" not in rec for rec in records[1:])
        assert by_kind["update"] == {
            "op": "update", "table": "item", "pk": row["id"],
            "after": {"name": "b"},
        }
        assert by_kind["delete"] == {
            "op": "delete", "table": "item", "pk": row["id"],
        }
        db.close()

    def test_equal_but_differently_typed_values_are_logged(self, tmp_path):
        """JSON has no ``1 == True == 1.0``: a delta that compared with
        ``==`` alone would drop these updates and recovery would bring
        back the old value."""
        db = open_db(tmp_path)
        row = db.insert("item", {"name": "a", "meta": 1})
        for value in (True, 1.0, 1, {"n": 1}, {"n": True}):
            db.update("item", row["id"], {"meta": value})
        updates = [
            op["after"]
            for rec in db._wal.records()
            for op in rec["ops"]
            if isinstance(op, dict) and op["op"] == "update"
        ]
        assert updates == [
            {"meta": True}, {"meta": 1.0}, {"meta": 1},
            {"meta": {"n": 1}}, {"meta": {"n": True}},
        ]
        assert [type(u["meta"]) for u in updates[:3]] == [bool, float, int]
        db.close()
        revived = open_db(tmp_path)
        revived.recover()
        assert revived.get("item", row["id"])["meta"] == {"n": True}
        assert revived.get("item", row["id"])["meta"]["n"] is True

    def test_update_naming_an_unchanged_value_logs_an_empty_delta(self, tmp_path):
        db = open_db(tmp_path)
        row = db.insert("item", {"name": "same"})
        db.update("item", row["id"], {"name": "same"})
        seq = db.committed_seq
        last = list(db._wal.records())[-1]
        assert last["ops"][0]["after"] == {}
        db.close()
        revived = open_db(tmp_path)
        revived.recover()
        assert revived.get("item", row["id"])["name"] == "same"
        assert revived.committed_seq == seq

    def test_old_encoding_recovers_to_the_same_state(self, tmp_path):
        """A log hand-written the way every earlier build wrote it
        (``before`` images, full ``after`` rows) and the log this build
        writes for the same history replay to the same tables."""
        created = dt.datetime(2010, 1, 5, 12, 0)
        new = open_db(tmp_path / "new")
        new.insert("item", {"name": "a", "created": created, "meta": {"k": 1}})
        new.insert("item", {"name": "gone"})
        new.update("item", 1, {"name": "b"})
        new.update("item", 1, {"meta": {"k": 2}})
        new.delete("item", 2)
        new.close()

        row_a = {"id": 1, "name": "a", "created": created.isoformat(),
                 "meta": {"k": 1}}
        row_b = {**row_a, "name": "b"}
        row_c = {**row_b, "meta": {"k": 2}}
        gone = {"id": 2, "name": "gone", "created": None, "meta": None}
        old_ops = [
            {"op": "insert", "table": "item", "pk": 1, "after": row_a},
            {"op": "insert", "table": "item", "pk": 2, "after": gone},
            {"op": "update", "table": "item", "pk": 1, "before": row_a,
             "after": row_b},
            {"op": "update", "table": "item", "pk": 1, "before": row_b,
             "after": row_c},
            {"op": "delete", "table": "item", "pk": 2, "before": gone},
        ]
        wal = WriteAheadLog(tmp_path / "old" / "wal.log")
        for seq, op in enumerate(old_ops, start=1):
            wal._append_record("commit", {"txn": seq, "seq": seq, "ops": [op]})
        wal.close()

        states = []
        for name in ("new", "old"):
            db = open_db(tmp_path / name)
            assert db.recover()["wal_txns"] == 5
            states.append(
                (list(db.rows("item")), db.table("item").version,
                 db.committed_seq)
            )
            db.close()
        assert states[0] == states[1]
        assert states[0][0] == [
            {"id": 1, "name": "b", "created": created, "meta": {"k": 2}}
        ]

    def test_row_dict_inserts_replay_beside_header_lines(self, tmp_path):
        """Until commit lines named each inserted table's columns once,
        an insert was a dict holding its whole row as ``after``.  A log
        with lines of both forms recovers, and a replica applies records
        of both forms, to the same rows."""
        created = dt.datetime(2010, 1, 5, 12, 0)
        previous = {"kind": "commit", "txn": 1, "seq": 1, "ops": [
            {"op": "insert", "table": "item", "pk": 1, "after": {
                "id": 1, "name": "a", "created": created.isoformat(),
                "meta": {"k": 1}}},
            {"op": "insert", "table": "item", "pk": 2, "after": {
                "id": 2, "name": "b", "created": None, "meta": None}},
        ]}
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_replicated(previous)
        wal.close()
        db = open_db(tmp_path)
        assert db.recover()["wal_txns"] == 1
        db.insert("item", {"name": "c", "meta": [1, True]})
        db.update("item", 1, {"name": "a2"})
        db.delete("item", 2)
        db.close()
        records = list(WriteAheadLog(tmp_path / "wal.log").records())
        assert ["columns" in record for record in records] == [
            False, True, False, False,
        ]
        revived = open_db(tmp_path)
        assert revived.recover()["wal_txns"] == 4
        expected = [
            {"id": 1, "name": "a2", "created": created, "meta": {"k": 1}},
            {"id": 3, "name": "c", "created": None, "meta": [1, True]},
        ]
        assert list(revived.rows("item")) == expected
        replica = open_db(None)
        for record in records:
            assert replica.apply_replicated_commit(record, seq=record["seq"])
        assert list(replica.rows("item")) == expected
        # A record from outside the process whose insert form is
        # malformed is refused as a schema error, and applies nothing.
        header = {"item": ["id", "name"]}
        for columns, op in [
            (["id", "name"], ["item", [9, "x"]]),  # columns not a map
            (header, ["item"]),  # not a [table, values] pair
            (header, [7, [9, "x"]]),  # the table is not a name
            (header, ["item", {"id": 9}]),  # values not a list
            (header, ["item", [9]]),  # values not under the header
            ({}, ["item", []]),  # no header for the table
        ]:
            with pytest.raises(SchemaError):
                replica.apply_replicated_commit(
                    {"kind": "commit", "txn": 9, "seq": 5,
                     "columns": columns, "ops": [op]},
                    seq=5,
                )
        assert list(replica.rows("item")) == expected
        revived.close()

    def test_compact_records_replay(self, tmp_path):
        db = open_db(tmp_path)
        keep = db.insert("item", {"name": "keep"})
        gone = db.insert("item", {"name": "gone"})
        db.update("item", keep["id"], {"name": "kept"})
        db.delete("item", gone["id"])
        db.close()

        revived = open_db(tmp_path)
        revived.recover()
        assert revived.count("item") == 1
        assert revived.get("item", keep["id"])["name"] == "kept"


class TestDurabilityModes:
    """Recovery semantics hold in every durability mode."""

    @pytest.mark.parametrize("mode", ["always", "group", "group:5:64", "buffered"])
    def test_commits_survive_reopen(self, tmp_path, mode):
        db = Database(tmp_path, durability=mode)
        db.create_table(make_schema())
        for i in range(5):
            db.insert("item", {"name": f"r{i}"})
        db.close()

        revived = open_db(tmp_path)
        stats = revived.recover()
        assert stats["wal_txns"] == 5
        assert revived.count("item") == 5

    @pytest.mark.parametrize("mode", ["group", "buffered"])
    def test_torn_tail_still_healed(self, tmp_path, mode):
        db = Database(tmp_path, durability=mode)
        db.create_table(make_schema())
        db.insert("item", {"name": "whole"})
        db.close()
        wal_path = tmp_path / "wal.log"
        with wal_path.open("a", encoding="utf-8") as fh:
            fh.write('deadbeef {"kind": "commit", "txn"')  # torn write

        revived = open_db(tmp_path)
        revived.recover()
        assert revived.count("item") == 1
        assert revived.query("item").one()["name"] == "whole"

    def test_checkpoint_under_group_mode(self, tmp_path):
        db = Database(tmp_path, durability="group")
        db.create_table(make_schema())
        db.insert("item", {"name": "pre"})
        db.checkpoint()
        db.insert("item", {"name": "post"})
        db.close()

        revived = Database(tmp_path, durability="group")
        revived.create_table(make_schema())
        revived.recover()
        assert sorted(revived.query("item").values("name")) == ["post", "pre"]

    @pytest.mark.parametrize(
        "mode", ["always", "group:4:32", "buffered"]
    )
    @pytest.mark.parametrize("site", WAL_SITES)
    def test_crash_at_every_fault_site_heals(self, tmp_path, mode, site):
        """A kill at any WAL crash point (including a torn write) never
        loses an earlier commit, and the healed log accepts new ones."""
        db = Database(tmp_path, durability=mode)
        db.create_table(make_schema())
        db.insert("item", {"name": "keep"})
        if site == "wal.write":
            fault = Fault(site, kind="torn_write", at_call=1, fraction=0.5)
        else:
            fault = Fault(site, at_call=1, error=CrashPoint)
        with inject(FaultPlan([fault])):
            try:
                db.insert("item", {"name": "crashing"})
            except Exception:
                pass
        # Simulated kill: abandon the handle without close().
        del db

        revived = Database(tmp_path, durability=mode)
        revived.create_table(make_schema())
        revived.recover()
        assert "keep" in set(revived.query("item").values("name"))
        assert revived.verify_integrity() == []
        revived.insert("item", {"name": "after-heal"})
        revived.close()

        again = open_db(tmp_path)
        again.recover()
        assert "after-heal" in set(again.query("item").values("name"))
        again.close()

    def test_statistics_report_durability(self, tmp_path):
        db = Database(tmp_path, durability="group:5:64")
        db.create_table(make_schema())
        spec = db.statistics()["durability"]
        assert spec.startswith("group")
        db.close()


class TestTornTailEdgeCases:
    """truncate_torn_tail() on degenerate logs (PR 5 hardening)."""

    def test_empty_log_is_a_no_op(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.truncate_torn_tail()
        assert list(wal.records()) == []
        assert wal.size_bytes() == 0
        wal.close()

    def test_only_line_torn_truncates_to_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal._append_record("commit", {"txn": 1, "ops": []})
        wal.close()
        path = tmp_path / "w.log"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        wal2 = WriteAheadLog(path)
        wal2.truncate_torn_tail()
        assert list(wal2.records()) == []
        assert wal2.size_bytes() == 0
        wal2.close()

    def test_valid_line_after_tear_is_dropped(self, tmp_path):
        # Healing keeps the longest intact PREFIX.  A valid-looking
        # record after a tear must never be resurrected: the tear means
        # everything beyond it is of unknown provenance.
        wal = WriteAheadLog(tmp_path / "w.log")
        wal._append_record("commit", {"txn": 1, "ops": []})
        wal.close()
        path = tmp_path / "w.log"
        intact_prefix = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(b"deadbeef {torn\n")
        wal2 = WriteAheadLog(path)
        wal2._append_record("commit", {"txn": 2, "ops": []})
        wal2.close()

        wal3 = WriteAheadLog(path)
        wal3.truncate_torn_tail()
        assert [r["txn"] for r in wal3.records()] == [1]
        assert path.read_bytes() == intact_prefix
        wal3.close()

    def test_double_truncate_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal._append_record("commit", {"txn": 1, "ops": []})
        wal._append_record("commit", {"txn": 2, "ops": []})
        wal.close()
        path = tmp_path / "w.log"
        with open(path, "ab") as fh:
            fh.write(b"0bad0bad {garbage")

        wal2 = WriteAheadLog(path)
        wal2.truncate_torn_tail()
        healed = path.read_bytes()
        wal2.truncate_torn_tail()
        assert path.read_bytes() == healed
        assert [r["txn"] for r in wal2.records()] == [1, 2]
        wal2.close()

    def test_unterminated_final_line_is_dropped(self, tmp_path):
        # A crash mid-append leaves a last line without its newline;
        # healing drops it and keeps the intact prefix byte for byte.
        wal = WriteAheadLog(tmp_path / "w.log")
        wal._append_record("commit", {"txn": 1, "ops": []})
        wal._append_record("commit", {"txn": 2, "ops": []})
        wal.close()
        path = tmp_path / "w.log"
        intact_prefix = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(b"deadbeef {half-writ")

        wal2 = WriteAheadLog(path)
        assert wal2.truncate_torn_tail() == 2
        assert path.read_bytes() == intact_prefix
        assert [r["txn"] for r in wal2.records()] == [1, 2]
        wal2.close()
