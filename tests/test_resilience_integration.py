"""Resilience wiring end-to-end: breakers, atomic imports, DLQ, chaos CLI."""

import datetime as dt

import pytest

from repro.cli import main
from repro.core.entities import DataResource, Workunit
from repro.dataimport import AffymetrixGeneChipProvider
from repro.errors import ConnectorError, FaultInjected
from repro.facade import BFabric
from repro.portal import PortalApplication
from repro.portal.testing import PortalClient
from repro.resilience import Fault, FaultPlan, inject
from repro.util.clock import ManualClock
from repro.workflow import END, Action, Step, WorkflowDefinition

TWO_GROUP_INTERFACE = {
    "inputs": ["resource"],
    "parameters": [
        {"name": "reference_group", "type": "text", "required": True},
    ],
    "output": "per-gene statistics CSV + report",
}

RSERVE_ENDPOINT = "rserve:rserve.local:6311"


@pytest.fixture
def system(tmp_path):
    return BFabric(tmp_path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))


@pytest.fixture
def scientist(system):
    admin = system.bootstrap()
    return system.add_user(admin, login="sci", full_name="Sci")


@pytest.fixture
def project(system, scientist):
    return system.projects.create(scientist, "Arabidopsis light response")


@pytest.fixture
def imported(system, scientist, project):
    system.imports.register_provider(AffymetrixGeneChipProvider("gc", runs=2))
    sample = system.samples.register_sample(
        scientist, project.id, "col0", species="Arabidopsis Thaliana"
    )
    system.samples.batch_register_extracts(
        scientist, sample.id, ["scan01 a", "scan01 b", "scan02 a", "scan02 b"]
    )
    workunit, resources, _ = system.imports.import_files(
        scientist, project.id, "gc",
        ["scan01_a.cel", "scan01_b.cel", "scan02_a.cel", "scan02_b.cel"],
        workunit_name="chips",
    )
    system.imports.apply_assignments(scientist, workunit.id)
    return workunit, resources


@pytest.fixture
def experiment(system, scientist, project, imported):
    application = system.applications.register_application(
        scientist,
        name="two group analysis",
        connector="rserve",
        executable="two_group_analysis",
        interface=TWO_GROUP_INTERFACE,
    )
    _, resources = imported
    return system.experiments.define(
        scientist, project.id, "light effect",
        application_id=application.id,
        resource_ids=[r.id for r in resources],
    )


def run_experiment(system, scientist, experiment, name):
    return system.experiments.run(
        scientist, experiment.id, workunit_name=name,
        parameters={"reference_group": "_a"},
    )


class TestConnectorBreaker:
    """The acceptance scenario: outage trips the breaker, half-open heals."""

    def test_outage_trips_breaker_then_half_open_recovers(
        self, system, scientist, experiment
    ):
        outage = FaultPlan(
            [Fault("connector.run", error=ConnectorError,
                   probability=1.0, times=-1)]
        )
        with inject(outage) as plan:
            # Run 1: three attempts, all fail, run is marked failed.
            workunit = run_experiment(system, scientist, experiment, "r1")
            assert workunit.status == "failed"
            assert plan.hits("connector.run") == 3
            assert system.breakers.states()[RSERVE_ENDPOINT] == "closed"
            # Run 2: the 5th consecutive failure opens the breaker, so
            # the third attempt is rejected without touching Rserve.
            workunit = run_experiment(system, scientist, experiment, "r2")
            assert workunit.status == "failed"
            assert plan.hits("connector.run") == 5
            assert system.breakers.states()[RSERVE_ENDPOINT] == "open"
            # Run 3: fails fast — the connector is never invoked.
            workunit = run_experiment(system, scientist, experiment, "r3")
            assert workunit.status == "failed"
            assert plan.hits("connector.run") == 5
        # Cooldown elapses; the breaker lets a probe through and the
        # (now healthy) connector closes it again.
        system.clock.advance(seconds=31)
        assert system.breakers.states()[RSERVE_ENDPOINT] == "half_open"
        workunit = run_experiment(system, scientist, experiment, "r4")
        assert workunit.status == "available"
        assert system.breakers.states()[RSERVE_ENDPOINT] == "closed"

    def test_metrics_are_visible_on_admin_pages(
        self, system, scientist, experiment
    ):
        admin = system.bootstrap()
        system.directory.set_password(admin, admin.user_id, "adminpw")
        outage = FaultPlan(
            [Fault("connector.run", error=ConnectorError,
                   probability=1.0, times=-1)]
        )
        with inject(outage):
            for name in ("r1", "r2", "r3"):
                run_experiment(system, scientist, experiment, name)
        client = PortalClient(PortalApplication(system))
        client.login("admin", "adminpw")
        body = client.get("/admin/metrics").text
        assert "Resilience" in body
        assert RSERVE_ENDPOINT in body
        assert "resilience_retries_total" in body
        raw = client.get("/admin/metrics.txt").text
        assert 'resilience_breaker_state{endpoint="rserve:' in raw
        assert "resilience_retries_total" in raw
        assert "resilience_gave_up_total" in raw


class TestImporterResilience:
    def test_mid_import_fault_leaves_nothing_behind(
        self, system, scientist, project
    ):
        system.imports.register_provider(
            AffymetrixGeneChipProvider("gc", runs=1)
        )
        rolled_back = []
        system.events.subscribe(
            "import.rolled_back", lambda **kw: rolled_back.append(kw)
        )
        plan = FaultPlan([Fault("dataimport.ingest", at_call=2)])
        with inject(plan):
            with pytest.raises(FaultInjected):
                system.imports.import_files(
                    scientist, project.id, "gc",
                    ["scan01_a.cel", "scan01_b.cel"],
                    workunit_name="doomed import",
                )
        assert len(rolled_back) == 1
        workunit = rolled_back[0]["workunit"]
        # Compensation removed the workunit row, its resources, and any
        # bytes already ingested into the managed store.
        assert system.registry.repository(Workunit).get_or_none(
            workunit.id
        ) is None
        resource_rows = (
            system.registry.repository(DataResource)
            .query().where("workunit_id", "=", workunit.id).count()
        )
        assert resource_rows == 0
        assert not system.store.directory_for(workunit.id).exists()
        # The search index no longer advertises the phantom workunit.
        hits = system.search.search(scientist, "doomed")
        assert all(h.entity_type != "workunit" for h in hits)

    def test_partial_provider_read_is_detected_and_healed_by_retry(
        self, system, scientist, project
    ):
        system.imports.register_provider(
            AffymetrixGeneChipProvider("gc", runs=1)
        )
        plan = FaultPlan(
            [Fault("dataimport.fetch", kind="partial",
                   at_call=1, fraction=0.5)]
        )
        with inject(plan):
            workunit, resources, _ = system.imports.import_files(
                scientist, project.id, "gc", ["scan01_a.cel"],
                workunit_name="healed",
            )
        # The truncated first read failed size verification and the
        # retry fetched the full file.
        assert plan.hits("dataimport.fetch") == 2
        assert workunit.status == "pending"
        listing = system.imports.browse("gc")
        expected = next(f for f in listing if f.name == "scan01_a.cel")
        assert resources[0].size_bytes == expected.size_bytes


class TestWorkflowTransitionResilience:
    def test_transient_transition_fault_is_retried(self, system):
        admin = system.bootstrap()
        system.workflow.register_definition(
            WorkflowDefinition(
                "linear2",
                steps=[
                    Step("draft", actions=(Action("submit", target="review"),)),
                    Step("review", actions=(Action("approve", target=END),)),
                ],
            )
        )
        instance = system.workflow.start(admin, "linear2")
        with inject(FaultPlan([Fault("workflow.transition", at_call=1)])):
            instance = system.workflow.fire(admin, instance.id, "submit")
        assert instance.current_step == "review"
        assert instance.status == "active"


class TestDlqCli:
    def make_dead_letter(self, data):
        """Open the deployment, dead-letter one event, close."""
        system = BFabric(data)
        system.recover()
        admin = system.bootstrap()

        def broken_consumer(**_kw):
            raise RuntimeError("consumer down")

        system.events.subscribe("custom.event", broken_consumer)
        system.events.publish("custom.event", who=admin.login)
        assert system.dlq.pending_count() == 1
        system.close()

    def test_list_retry_discard_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "deploy"
        assert main(["--data", str(data), "init"]) == 0
        capsys.readouterr()

        code = main(["--data", str(data), "dlq", "list"])
        assert code == 0
        assert "empty" in capsys.readouterr().out

        self.make_dead_letter(data)
        code = main(["--data", str(data), "dlq", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "custom.event" in out
        assert "broken_consumer" in out

        # A fresh CLI process has no such subscriber: retry reports the
        # failure and exits non-zero so scripts notice.
        code = main(["--data", str(data), "dlq", "retry", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "failed" in out

        code = main(["--data", str(data), "dlq", "discard", "1"])
        assert code == 0
        assert "discarded" in capsys.readouterr().out

        code = main(["--data", str(data), "dlq", "list"])
        assert code == 0
        assert "empty" in capsys.readouterr().out

        code = main(["--data", str(data), "dlq", "list", "--all"])
        assert code == 0
        assert "discarded" in capsys.readouterr().out


class TestDeadJobsParkOnce:
    def test_revived_job_that_dies_again_is_parked_once(self, tmp_path, capsys):
        data = tmp_path / "deploy"
        assert main(["--data", str(data), "init"]) == 0
        system = BFabric(data, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))
        system.recover()
        queue = system.queue
        job = queue.enqueue("t", max_attempts=1)
        queue.claim("w1")
        queue.nack(job.id, "w1", "boom")
        queue.retry_dead(job.id)
        queue.claim("w1")
        queue.nack(job.id, "w1", "boom again")
        assert system.dlq.list(status=None) == []
        assert [j.id for j in queue.list(state="dead")] == [job.id]
        system.close()
        capsys.readouterr()
        assert main(["--data", str(data), "dlq", "retry"]) == 0


class TestTortureCli:
    def test_torture_run_passes(self, tmp_path, capsys):
        data = tmp_path / "deploy"
        assert main(["--data", str(data), "init"]) == 0
        capsys.readouterr()
        code = main(
            ["--data", str(data), "torture", "--commits", "4", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok]" in out
        assert "wal.append" in out and "buffered" in out
