"""Crash recovery of multi-row commits: all or nothing, torn tails,
allocator continuity, and the torture driver.

This suite once tested the sharded two-phase commit.  Sharding was
removed; the test names stay, and each test now pins the single-WAL
behaviour that its two-phase counterpart checked: a commit that never
reached the log is absent after recovery, one that did is present in
full, and a torn record heals as an abort.
"""

import pytest

from repro.errors import CrashPoint, FaultInjected
from repro.resilience.faults import WAL_SITES, Fault, FaultPlan, inject
from repro.resilience.torture import run_torture
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.database import WAL_NAME


def _schema() -> TableSchema:
    return TableSchema(
        name="row",
        columns=[
            Column("id", ColumnType.INT, primary_key=True),
            Column("value", ColumnType.TEXT),
        ],
    )


def _open(path) -> Database:
    db = Database(path, durability="always")
    db.create_table(_schema())
    return db


#: The two rows of the transaction each crash interrupts.
A, B = 7, 8


def _crash_multi_row(tmp_path, fault):
    """Run a two-row commit into *fault*; abandon; reopen and recover."""
    directory = tmp_path / "deploy"
    db = _open(directory)
    db.insert("row", {"id": A + 500, "value": "baseline"})
    plan = FaultPlan([fault])
    with inject(plan):
        txn = db.transaction()
        txn.insert("row", {"id": A, "value": "xa"})
        txn.insert("row", {"id": B, "value": "xb"})
        with pytest.raises(FaultInjected):
            txn.commit()
    assert plan.fired() == 1
    del txn
    del db  # crash: no close(), no rollback
    recovered = _open(directory)
    stats = recovered.recover()
    return recovered, stats


def _crash(site):
    return Fault(site, kind="error", at_call=1, error=CrashPoint)


def _present(db):
    return {row["id"] for row in db.rows("row")}


class TestCrashPoints:
    def test_crash_between_prepare_and_decision_aborts(self, tmp_path):
        # Killed before a byte of the record was written.
        recovered, _ = _crash_multi_row(tmp_path, _crash("wal.append"))
        present = _present(recovered)
        assert A not in present and B not in present
        assert A + 500 in present  # surrounding durable commit survives
        assert recovered.verify_integrity() == []
        recovered.close()

    def test_crash_before_decision_record_aborts(self, tmp_path):
        # Killed while writing: a torn record, which recovery drops.
        torn = Fault("wal.write", kind="torn_write", at_call=1, fraction=0.5)
        recovered, stats = _crash_multi_row(tmp_path, torn)
        present = _present(recovered)
        assert A not in present and B not in present
        assert stats["wal_txns"] == 1
        recovered.close()

    def test_crash_after_decision_rolls_forward(self, tmp_path):
        # Killed after the fsync returned: the commit is durable.
        recovered, _ = _crash_multi_row(tmp_path, _crash("wal.after_fsync"))
        present = _present(recovered)
        assert A in present and B in present
        assert recovered.get("row", A)["value"] == "xa"
        assert recovered.verify_integrity() == []
        recovered.close()

    def test_partial_phase_two_is_completed_not_halved(self, tmp_path):
        # Killed between write and fsync: the one record holds both
        # rows, so recovery brings back both, never one.
        recovered, stats = _crash_multi_row(
            tmp_path, _crash("wal.after_write")
        )
        present = _present(recovered)
        assert A in present and B in present
        assert stats["wal_txns"] == 2
        recovered.close()

    def test_resolution_is_durable_without_decision_log(self, tmp_path):
        recovered, _ = _crash_multi_row(tmp_path, _crash("wal.after_fsync"))
        recovered.close()
        # The outcome lives in the WAL alone: there is no side log.
        names = {p.name for p in (tmp_path / "deploy").iterdir()}
        assert WAL_NAME in names and "coordinator.log" not in names
        # A second recovery over the same directory agrees.
        again = _open(tmp_path / "deploy")
        again.recover()
        assert _present(again) == {A, B, A + 500}
        again.close()


class TestDecisionLog:
    def test_torn_decision_tail_heals_as_presumed_abort(self, tmp_path):
        recovered, _ = _crash_multi_row(tmp_path, _crash("wal.append"))
        recovered.close()
        log = tmp_path / "deploy" / WAL_NAME
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('deadbeef {"kind": "commit", "ops": [{"op": "ins')
        again = _open(tmp_path / "deploy")
        again.recover()  # must not choke on the torn record
        assert _present(again) == {A + 500}
        again.close()

    def test_recover_resets_decision_log(self, tmp_path):
        # Recovery cuts a torn tail back to the last whole record, so
        # the next commit appends after it and replays.
        directory = tmp_path / "deploy"
        db = _open(directory)
        with db.transaction() as txn:
            txn.insert("row", {"id": A, "value": "xa"})
            txn.insert("row", {"id": B, "value": "xb"})
        db.close()
        log = directory / WAL_NAME
        whole = log.stat().st_size
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('deadbeef {"kind": "commit", "gt')
        again = _open(directory)
        again.recover()
        assert log.stat().st_size == whole
        again.insert("row", {"id": 99, "value": "after"})
        again.close()
        third = _open(directory)
        assert third.recover()["wal_txns"] == 2
        assert third.count("row") == 3
        third.close()


class TestAllocatorContinuity:
    def test_pk_allocation_resumes_past_recovered_rows(self, tmp_path):
        recovered, _ = _crash_multi_row(tmp_path, _crash("wal.after_fsync"))
        fresh = recovered.insert("row", {"value": "new"})["id"]
        assert fresh > max(A, B, A + 500)
        recovered.close()


class TestTortureDriver:
    def test_shard_torture_passes_every_crash_point(self, tmp_path):
        report = run_torture(tmp_path, modes=("always",), seed=7)
        problems = [p for case in report.cases for p in case.problems]
        assert problems == []
        assert all(case.fired for case in report.cases)
        assert tuple(case.site for case in report.cases) == WAL_SITES

    def test_shard_torture_requires_two_shards(self, tmp_path):
        # A workload too short to reach the fault step is refused.
        with pytest.raises(ValueError):
            run_torture(tmp_path, commits=2)
