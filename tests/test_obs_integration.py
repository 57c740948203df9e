"""Observability wired through storage, portal, and CLI."""

import datetime as dt

import pytest

from repro.cli import main
from repro.dataimport import AffymetrixGeneChipProvider
from repro.facade import BFabric
from repro.portal import PortalApplication
from repro.portal.testing import PortalClient
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util.clock import ManualClock


def _user_table(db: Database) -> None:
    db.create_table(
        TableSchema(
            "user",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("login", ColumnType.TEXT),
            ],
        )
    )


@pytest.fixture
def system(tmp_path):
    system = BFabric(tmp_path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))
    admin = system.bootstrap(password="adminpw")
    system.directory.set_password(admin, admin.user_id, "adminpw")
    system.add_user(
        admin, login="sci", full_name="Scientist", password="sciencepw"
    )
    system.imports.register_provider(
        AffymetrixGeneChipProvider("GeneChip", runs=1)
    )
    return system


@pytest.fixture
def client(system):
    return PortalClient(PortalApplication(system))


@pytest.fixture
def sci(client):
    client.login("sci", "sciencepw")
    return client


class TestStorageInstrumentation:
    def test_commit_metrics_accumulate(self, tmp_path):
        db = Database(tmp_path / "db")
        _user_table(db)
        with db.transaction() as txn:
            txn.insert("user", {"login": "a"})
            txn.insert("user", {"login": "b"})
        registry = db.obs.metrics
        assert registry.get("storage_commits_total").value == 1
        ops = registry.get("storage_ops_total")
        assert ops.labels(table="user", op="insert").value == 2
        assert registry.get("storage_commit_seconds").count == 1
        assert registry.get("storage_wal_append_seconds").count == 1
        db.close()

    def test_metrics_survive_database_recover(self, tmp_path):
        db = Database(tmp_path / "db")
        _user_table(db)
        with db.transaction() as txn:
            txn.insert("user", {"login": "a"})
        before = db.obs.metrics.get("storage_commits_total").value
        db.close()

        # Restart: a fresh Database sharing the hub replays the WAL.
        restarted = Database(tmp_path / "db", obs=db.obs)
        _user_table(restarted)
        restarted.recover()
        registry = restarted.obs.metrics
        # recover() must not reset the registry — only add to it.
        assert registry.get("storage_commits_total").value == before
        assert registry.get("storage_recover_seconds").count == 1
        assert restarted.obs.log.records("storage.recover")
        assert restarted.query("user").one()["login"] == "a"
        restarted.close()

    def test_facade_metrics_survive_reopen(self, tmp_path):
        system = BFabric(tmp_path)
        system.bootstrap(password="pw")
        commits = system.obs.metrics.get("storage_commits_total").value
        assert commits > 0
        system.close()

        reopened = BFabric(tmp_path)
        reopened.recover()
        # The persisted registry state carries prior history forward.
        restored = reopened.obs.metrics.get("storage_commits_total").value
        assert restored >= commits
        reopened.close()

    def test_checkpoint_timed_and_logged(self, tmp_path):
        system = BFabric(tmp_path)
        system.bootstrap(password="pw")
        system.db.checkpoint()
        assert system.obs.metrics.get("storage_checkpoint_seconds").count == 1
        assert system.obs.log.records("storage.checkpoint")
        system.close()


class TestMiddlewareLabels:
    def requests(self, system):
        return system.obs.metrics.get("http_requests_total")

    def test_ok_request_labelled_200(self, sci, system):
        sci.get("/ping")
        child = self.requests(system).labels(
            route="/ping", method="GET", status=200
        )
        assert child.value == 1
        latency = system.obs.metrics.get("http_request_seconds")
        assert latency.labels(route="/ping").count == 1

    def test_unmatched_path_labelled_404(self, sci, system):
        sci.get("/definitely/not/a/route")
        child = self.requests(system).labels(
            route="<unmatched>", method="GET", status=404
        )
        assert child.value == 1

    def test_anonymous_redirect_labelled_303(self, client, system):
        client.get("/", follow_redirects=False)
        child = self.requests(system).labels(
            route="/", method="GET", status=303
        )
        assert child.value == 1

    def test_route_pattern_not_raw_path(self, sci, system):
        sci.post("/projects", {"name": "P", "description": ""})
        sci.get("/projects/1")
        labelled = {
            labels["route"] for labels, _ in self.requests(system).samples()
        }
        assert "/projects/<int:project_id>" in labelled
        assert "/projects/1" not in labelled

    def test_request_log_records(self, sci, system):
        sci.get("/ping")
        record = system.obs.log.records("http.request")[-1]
        assert record["path"] == "/ping"
        assert record["status"] == 200
        assert record["duration"] >= 0
        spans = system.obs.tracer.finished("http.request")
        assert spans[-1].attributes["route"] == "/ping"


class TestAcceptanceScenario:
    """ISSUE acceptance: register sample → run experiment → search, then
    the exposition shows commit latency, fsync timings, a workflow
    transition histogram, and per-route request counters."""

    def drive(self, tmp_path):
        system = BFabric(tmp_path)  # real clock: nonzero durations
        admin = system.bootstrap(password="adminpw")
        system.directory.set_password(admin, admin.user_id, "adminpw")
        system.add_user(
            admin, login="sci", full_name="Scientist", password="sciencepw"
        )
        system.imports.register_provider(
            AffymetrixGeneChipProvider("GeneChip", runs=1)
        )
        client = PortalClient(PortalApplication(system))
        client.login("sci", "sciencepw")
        client.post("/projects", {"name": "P", "description": ""})
        client.post("/projects/1/samples", {"name": "s", "species": "",
                                            "description": ""})
        client.post("/samples/1/extracts", {"name": "scan01 a", "procedure": ""})
        client.post("/samples/1/extracts", {"name": "scan01 b", "procedure": ""})
        client.post(
            "/projects/1/import",
            {"provider": "GeneChip", "workunit_name": "chips", "mode": "copy",
             "file": ["scan01_a.cel", "scan01_b.cel"]},
        )
        workunit = system.db.query("workunit").one()
        client.post(f"/workunits/{workunit['id']}/assign",
                    {"extract_1": "1", "extract_2": "2"})
        client.post("/applications", {
            "name": "two group analysis",
            "connector": "rserve",
            "executable": "two_group_analysis",
            "description": "t-tests",
            "interface": (
                '{"inputs": ["resource"], "parameters": '
                '[{"name": "reference_group", "type": "text", "required": true}]}'
            ),
        })
        client.post("/projects/1/experiments", {
            "name": "light effect",
            "application_id": "1",
            "attributes": "{}",
            "resource": ["1", "2"],
        })
        client.post("/experiments/1/run", {
            "workunit_name": "results",
            "param_reference_group": "_a",
        })
        system.reindex_all()
        assert client.get("/search?q=analysis").status == 200
        return system, client

    def _value(self, text, prefix):
        lines = [line for line in text.splitlines()
                 if line.startswith(prefix) and "{" not in line[len(prefix):]]
        assert lines, f"no sample {prefix!r} in exposition"
        return float(lines[0].split()[-1])

    def test_exposition_after_scripted_session(self, tmp_path):
        system, client = self.drive(tmp_path)
        text = client.get("/admin/metrics.txt").text

        assert self._value(text, "bfabric_storage_commit_seconds_count") > 0
        assert self._value(text, "bfabric_storage_commit_seconds_sum") > 0
        assert self._value(text, "bfabric_storage_wal_fsync_seconds_count") > 0
        assert "# TYPE bfabric_workflow_transition_seconds histogram" in text
        transitions = [
            line for line in text.splitlines()
            if line.startswith("bfabric_workflow_transition_seconds_count{")
        ]
        assert transitions and any(
            float(line.split()[-1]) > 0 for line in transitions
        )
        assert 'bfabric_http_requests_total{route="/login"' in text
        assert (
            'bfabric_http_requests_total{route="/search"'
            ',method="GET",status="200"}' in text
        )
        assert self._value(text, "bfabric_search_queries_total") > 0
        system.close()

    def test_cli_metrics_shows_portal_session(self, tmp_path, capsys):
        system, _client = self.drive(tmp_path)
        system.close()  # persists the registry under <data>/obs/
        capsys.readouterr()

        assert main(["--data", str(tmp_path), "metrics"]) == 0
        out = capsys.readouterr().out
        assert self._value(out, "bfabric_storage_commit_seconds_count") > 0
        assert "bfabric_workflow_transition_seconds" in out
        assert 'bfabric_http_requests_total{route="/login"' in out

    def test_admin_metrics_page_renders(self, tmp_path):
        system, client = self.drive(tmp_path)
        client.get("/logout")
        client.login("admin", "adminpw")
        text = client.get("/admin/metrics").text
        assert "Latency (seconds)" in text
        assert "storage_commit_seconds" in text
        assert "Requests by route" in text
        # The planner's work counter: every shape the session planned was
        # enumerated once, and its repeats came from the shape memo.
        assert "Query planning and result cache" in text
        assert "<td>storage_query_plans_total</td><td>enumerated</td>" in text
        assert "<td>storage_query_plans_total</td><td>memo</td>" in text
        system.close()
