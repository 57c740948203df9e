"""End-to-end tracing: propagation across threads and processes, the
slow-op log, metrics history, and the flight-recorder bundle."""

import datetime as dt
import json
import threading

import pytest

from repro.cli import main
from repro.facade import BFabric
from repro.obs import (
    BUNDLE_SCHEMA,
    MetricsHistory,
    Observability,
    SlowOpLog,
    TraceContext,
    collect_debug_bundle,
    validate_debug_bundle,
    write_debug_bundle,
)
from repro.portal import PortalApplication
from repro.portal.testing import PortalClient
from repro.replication import Replica, ReplicationPublisher
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util.clock import ManualClock


def make_schema():
    return TableSchema(
        "doc",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("body", ColumnType.TEXT, nullable=False),
        ],
    )


class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext(trace_id="s7", span_id="s9")
        assert ctx.to_header() == "s7:s9"
        parsed = TraceContext.from_header("s7:s9")
        assert parsed == ctx

    def test_bare_trace_id_header(self):
        parsed = TraceContext.from_header("req-1234")
        assert parsed is not None
        assert parsed.trace_id == "req-1234"
        assert parsed.span_id == ""

    @pytest.mark.parametrize(
        "header", ["", "has space", "a" * 65, "x:y:z", "<script>"]
    )
    def test_malformed_headers_rejected(self, header):
        assert TraceContext.from_header(header) is None

    def test_dict_round_trip_and_malformed(self):
        ctx = TraceContext(trace_id="s3", span_id="s4")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({"span_id": "s4"}) is None
        assert TraceContext.from_dict({"trace_id": "no spaces"}) is None

    def test_explicit_parent_joins_trace_across_threads(self):
        obs = Observability()
        with obs.tracer.span("leader") as leader:
            ctx = leader.context()

            def worker():
                with obs.tracer.span("follower", parent=ctx):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = obs.tracer.trace(ctx.trace_id)
        names = {span.name for span in spans}
        assert names == {"leader", "follower"}
        follower = next(s for s in spans if s.name == "follower")
        assert follower.parent_id == leader.span_id


class TestSlowOpLog:
    def test_promotes_only_over_budget(self):
        clock = ManualClock(dt.datetime(2010, 1, 15))
        obs = Observability(clock=clock)
        with obs.tracer.span("storage.query"):
            clock.advance(seconds=0.05)  # under the 0.1s budget
        assert obs.slowlog.entries() == []
        with obs.tracer.span("storage.query"):
            clock.advance(seconds=0.2)
        entries = obs.slowlog.entries()
        assert len(entries) == 1
        assert entries[0]["name"] == "storage.query"
        assert entries[0]["duration"] == pytest.approx(0.2)
        assert entries[0]["threshold"] == pytest.approx(0.1)

    def test_explain_evaluated_lazily_on_promotion_only(self):
        clock = ManualClock(dt.datetime(2010, 1, 15))
        obs = Observability(clock=clock)
        calls = []

        def explain():
            calls.append(1)
            return {"strategy": "scan"}

        with obs.tracer.span("storage.query") as span:
            span.explain = explain
            clock.advance(seconds=0.01)  # fast: never promoted
        assert calls == []
        with obs.tracer.span("storage.query") as span:
            span.explain = explain
            clock.advance(seconds=0.5)
        assert calls == [1]
        assert obs.slowlog.entries()[-1]["explain"] == {"strategy": "scan"}

    def test_explain_failure_is_captured_not_raised(self):
        log = SlowOpLog()

        def boom():
            raise RuntimeError("planner died")

        entry = log.record("storage.query", 9.0, explain=boom)
        assert "planner died" in entry["explain"]["error"]

    def test_ring_is_bounded_but_promoted_keeps_counting(self):
        log = SlowOpLog(capacity=4)
        for i in range(10):
            log.record("op", float(i))
        assert len(log.entries()) == 4
        assert log.promoted == 10

    def test_state_restore_round_trip(self):
        log = SlowOpLog()
        log.record("storage.commit", 1.5, {"txn": "t1"})
        restored = SlowOpLog()
        restored.restore(json.loads(json.dumps(log.state())))
        assert restored.entries()[0]["name"] == "storage.commit"
        assert restored.promoted == 1

    def test_threshold_knob(self):
        log = SlowOpLog()
        log.set_threshold("custom.op", 0.0)
        assert log.threshold_for("custom.op") == 0.0
        with pytest.raises(ValueError):
            log.set_threshold("custom.op", -1.0)


class TestMetricsHistory:
    def test_windowed_rate_from_two_samples(self):
        clock = ManualClock(dt.datetime(2010, 1, 15))
        obs = Observability(clock=clock)
        counter = obs.metrics.counter("jobs_total", "jobs")
        counter.inc(5)
        obs.history.capture()
        clock.advance(seconds=10.0)
        counter.inc(20)
        obs.history.capture()
        assert obs.history.rate("jobs_total") == pytest.approx(2.0)
        summary = obs.history.window_summary(window=60.0)
        assert summary["keys"]["jobs_total"]["rate"] == pytest.approx(2.0)
        assert summary["keys"]["jobs_total"]["last"] == 25.0

    def test_window_excludes_old_samples(self):
        clock = ManualClock(dt.datetime(2010, 1, 15))
        registry = Observability(clock=clock)
        gauge = registry.metrics.gauge("depth", "queue depth")
        history = MetricsHistory(registry.metrics, clock=clock)
        gauge.set(1)
        history.capture()
        clock.advance(seconds=100.0)
        gauge.set(3)
        history.capture()
        clock.advance(seconds=5.0)
        gauge.set(7)
        history.capture()
        recent = history.samples(window=20.0)
        assert [s["values"]["depth"] for s in recent] == [3.0, 7.0]
        summary = history.window_summary(window=20.0)
        assert summary["keys"]["depth"]["min"] == 3.0
        assert summary["keys"]["depth"]["max"] == 7.0

    def test_histogram_flattens_to_count_and_sum(self):
        clock = ManualClock(dt.datetime(2010, 1, 15))
        obs = Observability(clock=clock)
        histo = obs.metrics.histogram("op_seconds", "latency")
        histo.observe(0.5)
        histo.observe(1.5)
        sample = obs.history.capture()
        assert sample["values"]["op_seconds.count"] == 2.0
        assert sample["values"]["op_seconds.sum"] == pytest.approx(2.0)

    def test_state_restore_round_trip(self):
        clock = ManualClock(dt.datetime(2010, 1, 15))
        obs = Observability(clock=clock)
        obs.metrics.counter("c_total", "c").inc()
        obs.history.capture()
        fresh = Observability(clock=clock)
        fresh.history.restore(json.loads(json.dumps(obs.history.state())))
        assert len(fresh.history) == 1
        assert fresh.history.samples()[0]["values"]["c_total"] == 1.0


class TestSpanSampling:
    def test_ok_spans_sampled_errors_always_logged(self):
        obs = Observability(span_sample_rate=0.25)
        for _ in range(8):
            with obs.tracer.span("fast.op"):
                pass
        ok_records = [
            r for r in obs.log.records("span") if r["name"] == "fast.op"
        ]
        assert len(ok_records) == 2  # deterministic: every 4th
        with pytest.raises(ValueError):
            with obs.tracer.span("fast.op"):
                raise ValueError("boom")
        error_records = [
            r for r in obs.log.records("span") if r["status"] == "error"
        ]
        assert len(error_records) == 1
        # The tracer ring still holds every span regardless of sampling.
        assert len(obs.tracer.finished("fast.op")) == 9
        assert obs.statistics()["spans_sampled_out"] == 6

    def test_slow_spans_bypass_sampling(self):
        clock = ManualClock(dt.datetime(2010, 1, 15))
        obs = Observability(clock=clock, span_sample_rate=0.0)
        with obs.tracer.span("storage.query"):
            clock.advance(seconds=5.0)
        assert [r["name"] for r in obs.log.records("span")] == ["storage.query"]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Observability(span_sample_rate=1.5)
        obs = Observability()
        with pytest.raises(ValueError):
            obs.set_span_sampling(-0.1)


class TestGroupCommitTraceLinkage:
    def test_commit_spans_link_to_leader_fsync_across_threads(self, tmp_path):
        db = Database(tmp_path / "db", durability="group:5:8")
        db.create_table(make_schema())
        obs = db.obs
        barrier = threading.Barrier(4)

        def commit(i):
            # Request-scoped tracing: each committer runs inside its own
            # client span, like a portal request would.
            with obs.tracer.span("client", worker=i):
                barrier.wait(timeout=5.0)
                with db.transaction() as txn:
                    txn.insert("doc", {"id": i + 1, "body": f"row {i}"})

        threads = [
            threading.Thread(target=commit, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        db.close()

        commits = obs.tracer.finished("storage.commit")
        fsyncs = obs.tracer.finished("wal.group_fsync")
        assert len(commits) == 4
        assert fsyncs, "group commit produced no fsync span"
        fsync_ids = {(s.trace_id, s.span_id) for s in fsyncs}
        for span in commits:
            link = (
                span.attributes["fsync_trace_id"],
                span.attributes["fsync_span_id"],
            )
            assert link in fsync_ids
        # Each commit span lives in its own client's trace, and at least
        # one follower's commit was fsynced under another thread's trace
        # — the cross-thread hop the link attributes exist to record.
        for span in commits:
            client = next(
                s for s in obs.tracer.trace(span.trace_id)
                if s.name == "client"
            )
            assert client.trace_id == span.trace_id
        batched = [s for s in fsyncs if s.attributes["batch"] > 1]
        if batched:  # scheduling-dependent, but the common case
            linked = set()
            for s in batched:
                linked.update(s.attributes.get("linked_traces", ()))
            assert linked - {s.trace_id for s in batched}


class TestQuerySlowPath:
    def _db(self, tmp_path):
        db = Database(tmp_path / "db")
        db.create_table(make_schema())
        with db.transaction() as txn:
            for i in range(5):
                txn.insert("doc", {"id": i + 1, "body": f"row {i}"})
        return db

    def test_traced_query_span_carries_explain_to_slowlog(self, tmp_path):
        db = self._db(tmp_path)
        db.obs.slowlog.set_threshold("storage.query", 0.0)
        with db.obs.tracer.span("client"):
            rows = db.query("doc").where("id", ">", 2).all()
        assert len(rows) == 3
        span = db.obs.tracer.finished("storage.query")[-1]
        assert span.attributes["table"] == "doc"
        assert span.attributes["rows"] == 3
        entry = next(
            e for e in db.obs.slowlog.entries("storage.query")
        )
        assert entry["explain"]["table"] == "doc"
        assert entry["explain"]["strategy"]
        assert entry["trace_id"] == span.trace_id
        db.close()

    def test_untraced_slow_query_feeds_slowlog_directly(self, tmp_path):
        db = self._db(tmp_path)
        db.obs.slowlog.set_threshold("storage.query", 0.0)
        count = db.query("doc").where("body", "contains", "row").count()
        assert count == 5
        # No trace was active: no span, but the slow log saw the scan.
        assert db.obs.tracer.finished("storage.query") == []
        entry = db.obs.slowlog.entries("storage.query")[-1]
        assert entry["attributes"]["kind"] == "count"
        assert entry["explain"]["strategy"]
        assert entry["trace_id"] == ""
        db.close()

    def test_cache_hits_skip_instrumentation(self, tmp_path):
        db = self._db(tmp_path)
        db.obs.slowlog.set_threshold("storage.query", 0.0)
        query = db.query("doc").where("id", "=", 1)
        query.all()
        promoted = db.obs.slowlog.promoted
        query.all()  # served from the result cache: not an execution
        assert db.obs.slowlog.promoted == promoted
        db.close()


class TestDebugBundle:
    def test_collect_validate_write_round_trip(self, tmp_path):
        system = BFabric(tmp_path / "data")
        system.bootstrap(password="pw")
        client = PortalClient(PortalApplication(system))
        client.login("admin", "pw")
        client.get("/ping")
        system.obs.history.capture()
        system.obs.slowlog.record("storage.query", 2.0, {"table": "user"})

        bundle = collect_debug_bundle(system, note="unit test")
        assert validate_debug_bundle(bundle) == []
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["note"] == "unit test"
        assert bundle["traces"], "portal request left no trace"
        assert bundle["slow_ops"][-1]["name"] == "storage.query"
        assert bundle["metrics_history"]
        assert bundle["storage"]["history_id"]

        path = write_debug_bundle(bundle, tmp_path / "out")
        reloaded = json.loads(path.read_text(encoding="utf-8"))
        assert validate_debug_bundle(reloaded) == []
        # Same-second bundles get distinct names, not clobbered.
        second = write_debug_bundle(bundle, tmp_path / "out")
        assert second != path
        system.close()

    def test_validator_flags_broken_bundles(self):
        assert validate_debug_bundle("not a dict")
        assert validate_debug_bundle({}) != []
        bundle = collect_debug_bundle()
        assert validate_debug_bundle(bundle) == []
        bundle["traces"] = {"t1": [{"span": "x"}]}
        assert any("malformed" in p for p in validate_debug_bundle(bundle))


class TestPortalHeaderPropagation:
    @pytest.fixture
    def system(self, tmp_path):
        system = BFabric(tmp_path / "data")
        system.bootstrap(password="pw")
        yield system
        system.close()

    @pytest.fixture
    def client(self, system):
        client = PortalClient(PortalApplication(system))
        client.login("admin", "pw")
        return client

    def test_minted_request_id_matches_trace(self, system, client):
        response = client.get("/ping")
        header = dict(response.headers)["X-Request-Id"]
        ctx = TraceContext.from_header(header)
        assert ctx is not None
        spans = system.obs.tracer.trace(ctx.trace_id)
        assert any(span.name == "http.request" for span in spans)

    def test_upstream_request_id_joins_trace(self, system, client):
        response = client.get(
            "/ping", headers={"X-Request-Id": "upstream-77"}
        )
        header = dict(response.headers)["X-Request-Id"]
        assert header.startswith("upstream-77:")
        span = system.obs.tracer.finished("http.request")[-1]
        assert span.trace_id == "upstream-77"

    def test_malformed_request_id_mints_fresh_trace(self, system, client):
        client.get("/ping", headers={"X-Request-Id": "bad header!"})
        span = system.obs.tracer.finished("http.request")[-1]
        assert span.trace_id != "bad header!"
        assert span.trace_id  # a fresh internal id

    def test_admin_slowlog_page_renders(self, system, client):
        system.obs.slowlog.record(
            "storage.query", 3.0, {"table": "user"},
            explain={"strategy": "full_scan"},
        )
        text = client.get("/admin/slowlog").text
        assert "storage.query" in text
        assert "full_scan" in text
        assert "Budgets" in text

    def test_admin_metrics_history_page_renders(self, system, client):
        system.obs.history.capture()
        text = client.get("/admin/metrics/history?window=600").text
        assert "Windowed series" in text
        assert "samples in window" in text


class TestCrossProcessTrace:
    def test_portal_commit_traces_through_group_wal_to_replica(
        self, tmp_path
    ):
        """The PR's acceptance scenario: one portal POST produces one
        trace whose spans cover the HTTP request, the storage commit
        (linked across the group-commit leader), and the replica's
        apply — on two separate databases."""
        primary = BFabric(tmp_path / "primary", durability="group:2:32")
        primary.bootstrap(password="pw")
        publisher = ReplicationPublisher(
            primary.db, obs=primary.obs
        ).start()
        replica_system = BFabric(tmp_path / "replica")
        replica = Replica(
            replica_system,
            ("127.0.0.1", publisher.port),
            name="r1",
        ).start()
        try:
            # Let the replica finish bootstrapping before the traced
            # request: a commit inside the bootstrap snapshot would ship
            # no frame (and therefore no trace).
            replica.wait_for(primary.db.committed_seq, timeout=10.0)
            client = PortalClient(PortalApplication(primary))
            client.login("admin", "pw")
            response = client.post(
                "/projects",
                {"name": "traced", "description": ""},
                follow_redirects=False,
            )
            header = dict(response.headers)["X-Request-Id"]
            ctx = TraceContext.from_header(header)
            assert ctx is not None

            seq = primary.db.committed_seq
            replica.wait_for(seq, timeout=10.0)

            spans = primary.obs.tracer.trace(ctx.trace_id)
            names = {span.name for span in spans}
            assert "http.request" in names
            assert "storage.commit" in names
            # One POST may commit more than once (entity + audit); every
            # commit's fsync ran under the group-commit leader, and the
            # link attributes point at a real finished fsync span.
            commits = [s for s in spans if s.name == "storage.commit"]
            fsyncs = {
                (s.trace_id, s.span_id)
                for s in primary.obs.tracer.finished("wal.group_fsync")
            }
            for commit in commits:
                assert (
                    commit.attributes["fsync_trace_id"],
                    commit.attributes["fsync_span_id"],
                ) in fsyncs

            applies = [
                span
                for span in replica_system.obs.tracer.finished(
                    "replication.apply"
                )
                if span.trace_id == ctx.trace_id
            ]
            assert applies, (
                "replica apply span did not join the primary's trace"
            )
            commit_ids = {commit.span_id for commit in commits}
            for apply_span in applies:
                assert apply_span.parent_id in commit_ids
        finally:
            replica.stop()
            replica_system.close()
            publisher.stop()
            primary.close()


class TestCliSurface:
    def _init(self, tmp_path):
        assert main(
            ["--data", str(tmp_path), "init", "--admin-password", "pw"]
        ) == 0

    def test_slowlog_command_reads_persisted_entries(self, tmp_path, capsys):
        self._init(tmp_path)
        system = BFabric(tmp_path)
        system.recover()
        system.obs.slowlog.record(
            "storage.query", 1.25, {"table": "doc"},
            explain={"strategy": "full_scan", "candidates": 9},
        )
        system.close()
        capsys.readouterr()
        assert main(["--data", str(tmp_path), "slowlog"]) == 0
        out = capsys.readouterr().out
        assert "storage.query" in out
        assert "1.250000s" in out
        assert "full_scan" in out
        assert main(
            ["--data", str(tmp_path), "slowlog", "--name", "no.such"]
        ) == 0
        assert "empty" in capsys.readouterr().out

    def test_debug_bundle_command_validates_and_writes(self, tmp_path, capsys):
        self._init(tmp_path)
        capsys.readouterr()
        assert main(
            ["--data", str(tmp_path), "debug-bundle", "--note", "smoke"]
        ) == 0
        out = capsys.readouterr().out
        assert "debug bundle written:" in out
        assert f"bundle validated against {BUNDLE_SCHEMA}" in out
        bundles = list((tmp_path / "debug").glob("debug-bundle-*.json"))
        assert len(bundles) == 1
        bundle = json.loads(bundles[0].read_text(encoding="utf-8"))
        assert validate_debug_bundle(bundle) == []
        assert bundle["note"] == "smoke"

    def test_stats_window_reports_rates(self, tmp_path, capsys):
        self._init(tmp_path)
        capsys.readouterr()
        assert main(["--data", str(tmp_path), "stats", "--window", "60"]) == 0
        out = capsys.readouterr().out
        assert "windowed rates" in out
