"""WAL-shipping replication: protocol, convergence, routing, failover."""

import json
import socket
import threading
import time

import pytest

from repro.errors import ReplicaLagExceeded, ReplicationProtocolError
from repro.replication import Replica, ReplicaSet, ReplicationPublisher
from repro.replication import protocol
from repro.resilience import Fault, FaultPlan, inject
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.wal import _encode_payload


def make_schema():
    return TableSchema(
        "doc",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("body", ColumnType.TEXT, nullable=False),
            Column("note", ColumnType.TEXT),
            Column("meta", ColumnType.JSON),
        ],
    )


def open_db(path) -> Database:
    db = Database(path, durability="always")
    db.create_table(make_schema())
    return db


def current_seq(db: Database) -> int:
    return db.committed_seq


@pytest.fixture
def cluster(tmp_path):
    """A primary publishing to two followers, torn down afterwards."""
    primary = open_db(tmp_path / "primary")
    publisher = ReplicationPublisher(primary).start()
    replicas = [
        Replica(
            open_db(tmp_path / f"r{i}"),
            ("127.0.0.1", publisher.port),
            name=f"r{i}",
        ).start()
        for i in range(2)
    ]
    yield primary, publisher, replicas
    for replica in replicas:
        replica.stop()
        replica.db.close()
    publisher.stop()
    primary.close()


class TestProtocol:
    def _pair(self):
        left, right = socket.socketpair()
        return protocol.Connection(left), protocol.Connection(right)

    def test_frame_round_trip(self):
        a, b = self._pair()
        a.send(protocol.hello(7, "r1", history="h1"))
        a.send(protocol.commit_message(9, 7, {"txn": 1, "ops": []}))
        assert b.recv() == {
            "type": "hello",
            "last_seq": 7,
            "replica": "r1",
            "history": "h1",
        }
        commit = b.recv()
        assert commit["seq"] == 9 and commit["prev"] == 7
        a.close()
        b.close()

    def test_timeout_mid_frame_resumes_without_desync(self):
        """A recv timeout with half a frame on the wire must not lose
        the buffered prefix — the next recv continues the same frame."""
        left, right = socket.socketpair()
        right.settimeout(0.05)
        a, b = protocol.Connection(left), protocol.Connection(right)
        frame = protocol.encode_frame(protocol.ack(42))
        a._sock.sendall(frame[:5])
        with pytest.raises(socket.timeout):
            b.recv()
        a._sock.sendall(frame[5:])
        a.send(protocol.heartbeat(43))  # and the stream stays aligned
        assert b.recv() == {"type": "ack", "seq": 42}
        assert b.recv() == {"type": "heartbeat", "seq": 43}
        a.close()
        b.close()

    def test_corrupted_body_raises(self):
        a, b = self._pair()
        frame = bytearray(protocol.encode_frame(protocol.ack(3)))
        frame[-1] ^= 0xFF
        a._sock.sendall(bytes(frame))
        with pytest.raises(ReplicationProtocolError, match="CRC"):
            b.recv()
        a.close()
        b.close()

    def test_mid_frame_eof_raises(self):
        a, b = self._pair()
        frame = protocol.encode_frame(protocol.heartbeat(5))
        a._sock.sendall(frame[: len(frame) - 4])
        a.close()
        with pytest.raises(ReplicationProtocolError):
            b.recv()
        b.close()

    def test_clean_eof_returns_none(self):
        a, b = self._pair()
        a.close()
        assert b.recv() is None
        b.close()

    def test_oversize_frame_rejected(self):
        a, b = self._pair()
        header = protocol._HEADER.pack(protocol.MAX_FRAME_BYTES + 1, 0)
        a._sock.sendall(header)
        with pytest.raises(ReplicationProtocolError, match="cap"):
            b.recv()
        a.close()
        b.close()


class TestStop:
    """``stop()`` wakes every publisher thread; it never waits one out."""

    def assert_stops_at_once(self, publisher):
        started = time.perf_counter()
        publisher.stop()
        elapsed = time.perf_counter() - started
        alive = [t.name for t in publisher._threads if t.is_alive()]
        assert alive == []
        assert elapsed < 0.1

    def test_idle_publisher_stops_at_once(self, tmp_path):
        primary = open_db(tmp_path / "primary")
        publisher = ReplicationPublisher(primary).start()
        try:
            time.sleep(0.05)  # let the acceptor block in accept()
            self.assert_stops_at_once(publisher)
        finally:
            primary.close()

    def test_streaming_publisher_stops_at_once(self, cluster):
        primary, publisher, replicas = cluster
        primary.insert("doc", {"id": 1, "body": "x"})
        for replica in replicas:
            replica.wait_for(current_seq(primary), timeout=5.0)
        self.assert_stops_at_once(publisher)


class TestConvergence:
    def test_two_replicas_converge_under_concurrent_writers(self, cluster):
        primary, publisher, replicas = cluster
        writers, per_writer = 4, 12
        barrier = threading.Barrier(writers)

        def worker(worker_id: int) -> None:
            barrier.wait()
            base = worker_id * per_writer + 1
            for i in range(per_writer):
                primary.insert("doc", {"id": base + i, "body": f"row {base + i}"})

        pool = [
            threading.Thread(target=worker, args=(w,)) for w in range(writers)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        seq = current_seq(primary)
        expected = sorted(row["id"] for row in primary.rows("doc"))
        assert len(expected) == writers * per_writer
        for replica in replicas:
            replica.wait_for(seq, timeout=10.0)
            with replica.snapshot() as snap:
                assert sorted(snap.pks("doc")) == expected
            assert replica.status()["connected"]

    def test_wait_for_gives_read_your_writes(self, cluster):
        primary, publisher, replicas = cluster
        primary.insert("doc", {"id": 1, "body": "mine"})
        seq = current_seq(primary)
        replicas[0].wait_for(seq, timeout=10.0)
        with replicas[0].snapshot() as snap:
            assert snap.get("doc", 1)["body"] == "mine"

    def test_wait_for_times_out(self, cluster):
        primary, publisher, replicas = cluster
        with pytest.raises(ReplicaLagExceeded):
            replicas[0].wait_for(current_seq(primary) + 1000, timeout=0.1)

    def test_traced_commit_carries_trace_to_replica_apply(self, cluster):
        primary, publisher, replicas = cluster
        # Prime the stream: the first row may reach a late-connecting
        # replica inside its bootstrap snapshot (which carries no trace);
        # once every replica has applied it, the next commit must arrive
        # as a live frame.
        primary.insert("doc", {"id": 99, "body": "primer"})
        for replica in replicas:
            replica.wait_for(current_seq(primary), timeout=10.0)
        with primary.obs.tracer.span("client.request") as span:
            primary.insert("doc", {"id": 1, "body": "traced"})
        trace_id = span.trace_id
        commit = primary.obs.tracer.finished("storage.commit")[-1]
        assert commit.trace_id == trace_id
        seq = current_seq(primary)
        for replica in replicas:
            replica.wait_for(seq, timeout=10.0)
            applies = [
                s for s in replica.obs.tracer.finished("replication.apply")
                if s.trace_id == trace_id
            ]
            # The frame-level trace field joins the replica's apply span
            # to the primary-side trace, parented on the commit span.
            assert len(applies) == 1
            assert applies[0].parent_id == commit.span_id
            assert applies[0].attributes["seq"] == seq

    def test_untraced_commit_ships_no_trace(self, cluster):
        primary, publisher, replicas = cluster
        # Prime the stream so the next commit arrives as a live frame,
        # not inside a bootstrap snapshot.
        primary.insert("doc", {"id": 99, "body": "primer"})
        replicas[0].wait_for(current_seq(primary), timeout=10.0)
        frames = []
        handle_message = replicas[0]._handle_message

        def recording(conn, message):
            frames.append(message)
            handle_message(conn, message)

        replicas[0]._handle_message = recording
        primary.insert("doc", {"id": 2, "body": "untraced"})
        seq = current_seq(primary)
        replicas[0].wait_for(seq, timeout=10.0)
        # No client span was open, so the commit frame carries no trace
        # and the replica applied without opening a span.
        [frame] = [
            f for f in frames if f["type"] == "commit" and f["seq"] == seq
        ]
        assert "trace" not in frame
        assert replicas[0].obs.tracer.finished("replication.apply") == []

    def test_replicas_converge_on_delta_updates(self, cluster, tmp_path):
        """Update records ship the changed columns only; a follower —
        streaming, or bootstrapped from a checkpoint and then fed
        deltas — merges them onto rows equal to the primary's."""
        primary, publisher, replicas = cluster
        for i in range(1, 4):
            primary.insert(
                "doc",
                {"id": i, "body": f"b{i}", "note": f"n{i}", "meta": {"v": 1}},
            )
        primary.update("doc", 1, {"body": "b1'"})
        primary.checkpoint()
        late = Replica(
            open_db(tmp_path / "late"),
            ("127.0.0.1", publisher.port),
            name="late",
        ).start()
        try:
            primary.update("doc", 1, {"note": None})
            primary.update("doc", 2, {"meta": {"v": True}, "note": "n2"})
            with primary.transaction() as txn:
                txn.update("doc", 3, {"body": "b3'"})
                txn.update("doc", 3, {"note": "n3'"})
                txn.delete("doc", 2)
            shipped = [
                op
                for record in primary.wal.records()
                for op in record.get("ops", ())
            ]
            changes = [  # an update is [table, pk, changes]
                op[2] if isinstance(op, list) else op.get("after")
                for op in shipped
            ]
            assert changes == [
                {"note": None},
                {"meta": {"v": True}},
                {"body": "b3'"},
                {"note": "n3'"},
                None,
            ]
            seq = current_seq(primary)
            expected = list(primary.rows("doc"))
            assert expected == [
                {"id": 1, "body": "b1'", "note": None, "meta": {"v": 1}},
                {"id": 3, "body": "b3'", "note": "n3'", "meta": {"v": 1}},
            ]
            for replica in replicas + [late]:
                replica.wait_for(seq, timeout=10.0)
                assert list(replica.db.rows("doc")) == expected
        finally:
            late.stop()
            late.db.close()

    def test_streaming_survives_checkpoint_wal_reset(self, cluster):
        """A checkpoint resets the WAL under the tailer; if the new file
        outgrows the tailer's stale offset before its next poll, a size
        comparison alone would start scanning mid-record and silently
        stop shipping.  The generation check must rescan from 0."""
        primary, publisher, replicas = cluster
        for i in range(5):
            primary.insert("doc", {"id": i + 1, "body": f"pre {i}"})
        seq = current_seq(primary)
        for replica in replicas:
            replica.wait_for(seq, timeout=10.0)
        primary.checkpoint()
        # One big record makes the fresh WAL immediately larger than the
        # old one, exercising the outgrown-offset interleaving.
        primary.insert("doc", {"id": 50, "body": "x" * 20000})
        seq = current_seq(primary)
        for replica in replicas:
            replica.wait_for(seq, timeout=10.0)
            with replica.snapshot() as snap:
                assert snap.count("doc") == 6

    def test_late_joiner_bootstraps(self, cluster, tmp_path):
        primary, publisher, replicas = cluster
        for i in range(5):
            primary.insert("doc", {"id": i + 1, "body": f"pre {i}"})
        late = Replica(
            open_db(tmp_path / "late"),
            ("127.0.0.1", publisher.port),
            name="late",
        ).start()
        try:
            late.wait_for(current_seq(primary), timeout=10.0)
            with late.snapshot() as snap:
                assert snap.count("doc") == 5
            assert late.status()["bootstraps"] >= 0
        finally:
            late.stop()
            late.db.close()


class TestRouting:
    def test_reads_route_to_replicas(self, cluster):
        primary, publisher, replicas = cluster
        primary.insert("doc", {"id": 1, "body": "routed"})
        rs = ReplicaSet(primary, replicas, publisher=publisher)
        rs.wait_all(current_seq(primary), timeout=10.0)
        with rs.read_snapshot() as snap:
            assert snap.get("doc", 1)["body"] == "routed"
        counter = primary.obs.metrics.get("replication_reads_total")
        routed = {
            labels["target"]: child.value for labels, child in counter.samples()
        }
        assert any(name.startswith("r") for name in routed)

    def test_fallback_to_primary_when_replicas_unhealthy(self, cluster):
        primary, publisher, replicas = cluster
        primary.insert("doc", {"id": 1, "body": "fallback"})
        rs = ReplicaSet(primary, replicas, publisher=publisher)
        for replica in replicas:
            replica.stop()
        with rs.read_snapshot() as snap:
            assert snap.get("doc", 1)["body"] == "fallback"
        counter = primary.obs.metrics.get("replication_reads_total")
        assert counter.labels(target="primary").value >= 1

    def test_stalled_apply_is_routed_around(self, cluster):
        """A replica stuck applying a frame has read no newer one, so its
        own lag reads 0; routing measures it against the primary."""
        primary, publisher, replicas = cluster
        stalled = replicas[0]
        primary.insert("doc", {"id": 0, "body": "before"})
        stalled.wait_for(current_seq(primary), timeout=10.0)
        gate = threading.Event()
        apply = stalled.db.apply_replicated_commit

        def held(*args, **kwargs):
            gate.wait(10.0)
            return apply(*args, **kwargs)

        stalled.db.apply_replicated_commit = held
        try:
            for i in range(1, 21):
                primary.insert("doc", {"id": i, "body": f"stalled {i}"})
            rs = ReplicaSet(primary, [stalled], publisher=publisher, max_lag=2)
            assert stalled.lag() <= 2
            assert rs.pick() is None
            with rs.read_snapshot() as snap:
                assert snap.query("doc").count() == 21
            assert rs.lag(stalled) >= 19
        finally:
            gate.set()

    def test_disconnected_replica_snapshot_raises(self, cluster):
        primary, publisher, replicas = cluster
        replicas[0].max_lag = 8  # opt in to the staleness bound
        replicas[0].stop()
        with pytest.raises(ReplicaLagExceeded):
            replicas[0].snapshot()

    def test_lag_gauges_exported(self, cluster):
        primary, publisher, replicas = cluster
        primary.insert("doc", {"id": 1, "body": "gauge"})
        seq = current_seq(primary)
        for replica in replicas:
            replica.wait_for(seq, timeout=10.0)
        status = publisher.status()
        assert set(status["replicas"]) == {"r0", "r1"}
        gauge = primary.obs.metrics.get("replication_lag_seqs")
        assert gauge is not None
        for name in ("r0", "r1"):
            assert gauge.labels(replica=name).value >= 0


class TestFaultTolerance:
    def test_converges_through_dropped_and_duplicated_frames(self, tmp_path):
        plan = FaultPlan(
            [
                Fault("replication.recv", kind="drop", probability=0.15, times=4),
                Fault(
                    "replication.recv", kind="duplicate", probability=0.15, times=4
                ),
            ],
            seed=11,
        )
        with inject(plan):
            primary = open_db(tmp_path / "primary")
            publisher = ReplicationPublisher(primary).start()
            replica = Replica(
                open_db(tmp_path / "r0"),
                ("127.0.0.1", publisher.port),
                name="r0",
            ).start()
            try:
                for i in range(40):
                    primary.insert("doc", {"id": i + 1, "body": f"row {i}"})
                replica.wait_for(current_seq(primary), timeout=20.0)
                with replica.snapshot() as snap:
                    assert snap.count("doc") == 40
            finally:
                replica.stop()
                replica.db.close()
                publisher.stop()
                primary.close()
        assert plan.fired() > 0

    def test_recovers_from_torn_frame_send(self, tmp_path):
        plan = FaultPlan(
            [Fault("replication.send", kind="torn_write", at_call=4, fraction=0.5)]
        )
        with inject(plan):
            primary = open_db(tmp_path / "primary")
            publisher = ReplicationPublisher(primary).start()
            replica = Replica(
                open_db(tmp_path / "r0"),
                ("127.0.0.1", publisher.port),
                name="r0",
            ).start()
            try:
                for i in range(20):
                    primary.insert("doc", {"id": i + 1, "body": f"row {i}"})
                replica.wait_for(current_seq(primary), timeout=20.0)
                with replica.snapshot() as snap:
                    assert snap.count("doc") == 20
            finally:
                replica.stop()
                replica.db.close()
                publisher.stop()
                primary.close()
        assert plan.fired() == 1


class TestFailover:
    def test_promote_preserves_confirmed_commits(self, cluster):
        primary, publisher, replicas = cluster
        for i in range(10):
            primary.insert("doc", {"id": i + 1, "body": f"row {i}"})
        seq = current_seq(primary)
        for replica in replicas:
            replica.wait_for(seq, timeout=10.0)
        publisher.kill()
        rs = ReplicaSet(primary, list(replicas), publisher=None)
        promoted = rs.promote(drain_timeout=2.0)
        db = promoted.db
        assert sorted(row["id"] for row in db.rows("doc")) == list(range(1, 11))
        assert db.verify_integrity() == []
        db.insert("doc", {"id": 999, "body": "post-promote"})
        assert db.get("doc", 999)["body"] == "post-promote"
        assert promoted.promoted
        with promoted.snapshot() as snap:  # promoted replicas always serve
            assert snap.count("doc") == 11

    def test_promote_bounded_while_primary_still_streams(self, cluster):
        """Frame arrivals extend the drain only up to the hard cap — a
        primary that never goes quiet cannot stall promotion, and the
        stream thread is fully stopped before local writes begin."""
        import time

        primary, publisher, replicas = cluster
        halt = threading.Event()

        def writer() -> None:
            i = 1000
            while not halt.is_set():
                primary.insert("doc", {"id": i, "body": "hot"})
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            time.sleep(0.3)  # let the stream run hot
            started = time.monotonic()
            db = replicas[0].promote(drain_timeout=1.0)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0
            assert replicas[0].promoted
            assert not replicas[0]._thread.is_alive()
            db.insert("doc", {"id": 999999, "body": "local"})
            assert db.get("doc", 999999)["body"] == "local"
        finally:
            halt.set()
            thread.join()

    def test_failover_rewires_the_survivor(self, cluster):
        primary, publisher, replicas = cluster
        for i in range(6):
            primary.insert("doc", {"id": i + 1, "body": f"row {i}"})
        seq = current_seq(primary)
        for replica in replicas:
            replica.wait_for(seq, timeout=10.0)
        rs = ReplicaSet(primary, list(replicas), publisher=publisher)
        promoted = rs.failover(drain_timeout=2.0)
        try:
            assert rs.primary is promoted.system
            promoted.db.insert("doc", {"id": 100, "body": "new primary"})
            new_seq = current_seq(promoted.db)
            survivor = rs.replicas[0]
            survivor.wait_for(new_seq, timeout=10.0)
            with survivor.snapshot() as snap:
                assert snap.get("doc", 100)["body"] == "new primary"
        finally:
            rs.publisher.stop()


class TestBootstrapAndRestart:
    def test_bootstrap_reorders_alphabetical_wire_map(self, tmp_path):
        """The frame codec sorts keys; FK order must not depend on it."""

        def fk_db(path) -> Database:
            db = Database(path, durability="always")
            db.create_table(
                TableSchema(
                    "z_parent",
                    [
                        Column("id", ColumnType.INT, primary_key=True),
                        Column("name", ColumnType.TEXT, nullable=False),
                    ],
                )
            )
            db.create_table(
                TableSchema(
                    "a_child",
                    [
                        Column("id", ColumnType.INT, primary_key=True),
                        Column(
                            "parent_id",
                            ColumnType.INT,
                            foreign_key="z_parent.id",
                            nullable=False,
                        ),
                    ],
                )
            )
            return db

        primary = fk_db(tmp_path / "primary")
        primary.insert("z_parent", {"id": 1, "name": "p"})
        primary.insert("a_child", {"id": 1, "parent_id": 1})
        seq, tables = primary.export_snapshot()
        wire_order = dict(sorted(tables.items()))  # what sort_keys does
        assert list(wire_order) == ["a_child", "z_parent"]
        replica = fk_db(tmp_path / "replica")
        replica.load_replicated_snapshot(wire_order, seq=seq)
        assert replica.get("a_child", 1)["parent_id"] == 1
        assert replica.verify_integrity() == []
        primary.close()
        replica.close()

    def test_recover_restores_commit_sequence(self, tmp_path):
        db = open_db(tmp_path)
        for i in range(3):
            db.insert("doc", {"id": i + 1, "body": f"row {i}"})
        seq = current_seq(db)
        assert seq >= 3
        db.close()
        db2 = open_db(tmp_path)
        db2.recover()
        assert current_seq(db2) == seq
        db2.close()

    def test_commit_sequence_survives_checkpoint_restart(self, tmp_path):
        """A checkpoint resets the WAL; the counter must not reset with
        it, or a restarted primary would re-issue sequence numbers its
        replicas already applied."""
        db = open_db(tmp_path)
        for i in range(5):
            db.insert("doc", {"id": i + 1, "body": f"row {i}"})
        seq = current_seq(db)
        db.checkpoint()
        db.close()
        db2 = open_db(tmp_path)
        db2.recover()
        assert current_seq(db2) == seq
        # And commits after the restart continue the sequence space.
        db2.insert("doc", {"id": 100, "body": "post-restart"})
        assert current_seq(db2) > seq
        db2.close()

    def test_history_id_stable_across_restart_and_fresh_on_promote(
        self, tmp_path
    ):
        db = open_db(tmp_path / "p")
        first = db.history_id
        db.close()
        db2 = open_db(tmp_path / "p")
        assert db2.history_id == first
        assert db2.new_history() != first
        db2.close()

    def test_mismatched_history_forces_bootstrap_not_resume(self, cluster):
        """A replica whose applied seq looks resumable but whose history
        differs (e.g. the primary restarted after a checkpoint regressed
        and re-grew its counter) must get a snapshot, never a resume."""
        import time

        primary, publisher, replicas = cluster
        primary.insert("doc", {"id": 1, "body": "x"})
        seq = current_seq(primary)
        for replica in replicas:
            replica.wait_for(seq, timeout=10.0)
        before = replicas[0].status()["bootstraps"]
        # Reconnect r0 with the right position but the wrong lineage.
        replicas[0].stop()
        replicas[0].db.adopt_history("someone-elses-history")
        replicas[0].rejoin(("127.0.0.1", publisher.port))
        deadline = time.monotonic() + 10.0
        while (
            replicas[0].status()["bootstraps"] == before
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert replicas[0].status()["bootstraps"] > before
        # The bootstrap re-aligned the replica with the primary's lineage.
        assert replicas[0].db.history_id == primary.history_id
        replicas[0].wait_for(seq, timeout=10.0)

    def test_rebootstrapped_publisher_evicts_its_replicas(self, cluster):
        """A publishing database whose state is replaced (as a cascading
        replica's is by its upstream) must not chain its next commit
        onto the replicas' stale positions: they re-bootstrap."""
        primary, publisher, replicas = cluster
        for i in range(1, 4):
            primary.insert("doc", {"id": i, "body": f"row {i}"})
        for replica in replicas:
            replica.wait_for(current_seq(primary), timeout=10.0)
        upstream = {"id": 10, "body": "upstream", "note": None, "meta": None}
        primary.load_replicated_snapshot(
            {"doc": [upstream]}, seq=current_seq(primary) + 5
        )
        primary.insert("doc", {"id": 11, "body": "after"})
        expected = list(primary.rows("doc"))
        assert [row["id"] for row in expected] == [10, 11]
        for replica in replicas:
            replica.wait_for(current_seq(primary), timeout=10.0)
            assert list(replica.db.rows("doc")) == expected


class TestFrameFidelity:
    @pytest.mark.parametrize("durability", ["always", "buffered", "group"])
    def test_commit_frames_carry_the_wal_lines(self, tmp_path, durability):
        """Each commit frame's record encodes to the body of that seq's
        WAL line, byte for byte; only the traced commit carries a trace."""
        primary = Database(tmp_path / "primary", durability=durability)
        primary.create_table(make_schema())
        publisher = ReplicationPublisher(primary).start()
        conn = protocol.Connection(
            socket.create_connection(("127.0.0.1", publisher.port), timeout=10)
        )
        try:
            conn.send(protocol.hello(0, "raw"))
            assert conn.recv()["type"] == "snapshot"
            for i in range(1, 4):
                primary.insert(
                    "doc",
                    {"id": i, "body": f"b{i}", "note": "é", "meta": {"v": i}},
                )
            primary.update("doc", 1, {"note": None, "meta": {"v": True}})
            primary.delete("doc", 2)
            with primary.obs.tracer.span("client.request"):
                primary.insert("doc", {"id": 4, "body": "traced"})
            traced_seq = current_seq(primary)
            frames = {}
            while len(frames) < 6:
                message = conn.recv()
                if message["type"] == "commit":
                    frames[message["seq"]] = message
            wal_bodies = {}
            wal_path = tmp_path / "primary" / "wal.log"
            for line in wal_path.read_text(encoding="utf-8").splitlines():
                body = line[9:]  # past the CRC and its space
                wal_bodies[json.loads(body)["seq"]] = body
            assert sorted(frames) == sorted(wal_bodies)
            for seq, frame in frames.items():
                assert _encode_payload(frame["record"]) == wal_bodies[seq]
                assert ("trace" in frame) == (seq == traced_seq)
        finally:
            conn.close()
            publisher.stop()
            primary.close()


class TestMvccObservability:
    def test_snapshot_gauges_track_open_and_horizon(self):
        db = Database()
        db.create_table(make_schema())
        open_gauge = db.obs.metrics.get("storage_open_snapshots").labels()
        horizon_gauge = db.obs.metrics.get("storage_version_horizon").labels()
        db.insert("doc", {"id": 1, "body": "x"})
        snap = db.snapshot()
        assert open_gauge.value == 1
        assert horizon_gauge.value == snap.seq
        snap.close()
        assert open_gauge.value == 0
        mvcc = db.statistics()["mvcc"]
        assert set(mvcc) == {
            "committed_seq",
            "open_snapshots",
            "version_horizon",
            "retained_versions",
        }


class TestPortalRouting:
    def test_get_pages_render_from_replica_snapshots(self, tmp_path):
        import datetime as dt

        from repro.facade import BFabric
        from repro.portal import PortalApplication
        from repro.portal.testing import PortalClient
        from repro.util.clock import ManualClock

        primary = BFabric(
            tmp_path / "p", clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0))
        )
        admin = primary.bootstrap(password="adminpw")
        primary.directory.set_password(admin, admin.user_id, "adminpw")
        publisher = ReplicationPublisher(primary.db, obs=primary.obs).start()
        follower_system = BFabric(tmp_path / "r")
        follower = Replica(
            follower_system, ("127.0.0.1", publisher.port), name="r0"
        ).start()
        rs = ReplicaSet(primary, [follower], publisher=publisher)
        try:
            rs.wait_all(primary.db.committed_seq, timeout=15.0)
            client = PortalClient(PortalApplication(primary, replicas=rs))
            client.login("admin", "adminpw")
            page = client.get("/admin/metrics")
            assert page.status == 200
            assert "MVCC" in page.text
            assert "Replication" in page.text
            counter = primary.obs.metrics.get("replication_reads_total")
            routed = {
                labels["target"]: child.value
                for labels, child in counter.samples()
            }
            assert routed.get("r0", 0) >= 1
        finally:
            rs.close()
            follower_system.close()
            primary.close()
