"""The web portal, driven end-to-end through the in-process client."""

import datetime as dt
import threading
import time

import pytest

from repro.dataimport import AffymetrixGeneChipProvider
from repro.errors import ValidationError
from repro.facade import BFabric
from repro.portal import PortalApplication
from repro.portal.http import Request, Response
from repro.portal.routing import Router
from repro.portal.testing import PortalClient
from repro.util.clock import ManualClock
from repro.workload.scenario import TWO_GROUP_INTERFACE


@pytest.fixture
def system(tmp_path):
    system = BFabric(tmp_path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))
    admin = system.bootstrap(password="adminpw")
    system.directory.set_password(admin, admin.user_id, "adminpw")
    system.add_user(
        admin, login="sci", full_name="Scientist", password="sciencepw"
    )
    system.add_user(
        admin, login="exp", full_name="Expert", role="employee",
        password="expertpw",
    )
    system.imports.register_provider(AffymetrixGeneChipProvider("GeneChip", runs=1))
    return system


@pytest.fixture
def client(system):
    return PortalClient(PortalApplication(system))


@pytest.fixture
def sci(client):
    client.login("sci", "sciencepw")
    return client


class TestRouting:
    def test_placeholder_matching(self):
        router = Router()

        @router.get("/thing/<int:thing_id>/part/<str:name>")
        def handler(request: Request) -> Response:
            return Response(f"{request.params['thing_id']}:{request.params['name']}")

        request = Request(method="GET", path="/thing/42/part/widget")
        assert router.dispatch(request).text == "42:widget"

    def test_unmatched_path_404(self):
        router = Router()
        request = Request(method="GET", path="/nope")
        assert router.dispatch(request).status == 404

    def test_wrong_method_400(self):
        router = Router()

        @router.post("/only-post")
        def handler(request):
            return Response("ok")

        request = Request(method="GET", path="/only-post")
        assert router.dispatch(request).status == 400


class TestAuthFlow:
    def test_anonymous_redirected_to_login(self, client):
        response = client.get("/", follow_redirects=False)
        assert response.status == 303
        assert dict(response.headers)["Location"] == "/login"

    def test_ping_is_public(self, client):
        assert client.get("/ping").text == "pong"

    def test_bad_credentials(self, client):
        response = client.post(
            "/login", {"login": "sci", "password": "wrong"}
        )
        assert response.status == 403

    def test_login_logout_cycle(self, client):
        client.login("sci", "sciencepw")
        assert "Open tasks" in client.get("/").text
        client.get("/logout")
        response = client.get("/", follow_redirects=False)
        assert response.status == 303


class TestScreens:
    def test_home_shows_quick_search_and_tasks(self, sci):
        text = sci.get("/").text
        assert "quick search" in text
        assert "Open tasks" in text

    def test_project_lifecycle(self, sci):
        response = sci.post(
            "/projects", {"name": "Arabidopsis", "description": "light study"}
        )
        assert "Arabidopsis" in response.text
        assert "register sample" in response.text

    def test_sample_and_extract_registration(self, sci):
        sci.post("/projects", {"name": "P", "description": ""})
        response = sci.post(
            "/projects/1/samples",
            {"name": "wt light 1", "species": "A. thaliana", "description": ""},
        )
        assert "wt light 1" in response.text
        response = sci.post(
            "/samples/1/extracts", {"name": "wt light 1 rna", "procedure": "TRIzol"}
        )
        assert "wt light 1 rna" in response.text

    def test_sample_form_offers_vocabulary_dropdown(self, system, client):
        client.login("exp", "expertpw")
        expert = system.directory.principal_for(
            system.directory.user_by_login("exp")
        )
        attribute = system.annotations.define_attribute(expert, "Disease State")
        annotation, _ = system.annotations.create_annotation(
            expert, attribute.id, "Healthy"
        )
        system.annotations.release(expert, annotation.id)
        client.post("/projects", {"name": "P", "description": ""})
        form_html = client.get("/projects/1/samples/new").text
        assert "Disease State" in form_html
        assert "Healthy" in form_html
        assert f"new_attr_{attribute.id}" in form_html  # inline creation box

    def test_inline_annotation_creation_creates_pending(self, system, client):
        client.login("exp", "expertpw")
        expert = system.directory.principal_for(
            system.directory.user_by_login("exp")
        )
        attribute = system.annotations.define_attribute(expert, "Disease State")
        client.post("/projects", {"name": "P", "description": ""})
        client.post(
            "/projects/1/samples",
            {"name": "s1", "species": "", "description": "",
             f"new_attr_{attribute.id}": "Hopeless"},
        )
        pending = system.annotations.pending_review()
        assert [a.value for a in pending] == ["Hopeless"]

    def test_clone_sample_via_portal(self, sci):
        sci.post("/projects", {"name": "P", "description": ""})
        sci.post("/projects/1/samples", {"name": "orig", "species": "x",
                                         "description": ""})
        response = sci.post("/samples/1/clone", {"name": "copy"})
        assert "copy" in response.text

    def test_annotation_review_and_release(self, system, client):
        client.login("exp", "expertpw")
        expert = system.directory.principal_for(
            system.directory.user_by_login("exp")
        )
        attribute = system.annotations.define_attribute(expert, "Disease State")
        annotation, _ = system.annotations.create_annotation(
            expert, attribute.id, "Hopeless"
        )
        review = client.get("/annotations/review")
        assert "Hopeless" in review.text
        client.post(f"/annotations/{annotation.id}/release")
        assert "Hopeless" not in client.get("/annotations/review").text

    def test_merge_via_portal(self, system, client):
        client.login("exp", "expertpw")
        expert = system.directory.principal_for(
            system.directory.user_by_login("exp")
        )
        attribute = system.annotations.define_attribute(expert, "Disease State")
        keep, _ = system.annotations.create_annotation(
            expert, attribute.id, "Hopeless"
        )
        merge, _ = system.annotations.create_annotation(
            expert, attribute.id, "Hopeles"
        )
        review = client.get("/annotations/review")
        assert "Hopeles" in review.text  # recommendation visible
        client.post(f"/annotations/merge?keep={keep.id}&merge={merge.id}")
        resolved = system.annotations.resolve(merge.id)
        assert resolved.id == keep.id

    def test_import_wizard_and_assignment(self, sci, system):
        sci.post("/projects", {"name": "P", "description": ""})
        sci.post("/projects/1/samples", {"name": "s", "species": "",
                                         "description": ""})
        sci.post("/samples/1/extracts", {"name": "scan01 a", "procedure": ""})
        sci.post("/samples/1/extracts", {"name": "scan01 b", "procedure": ""})
        picker = sci.get("/projects/1/import?provider=GeneChip")
        assert "scan01_a.cel" in picker.text
        assign_screen = sci.post(
            "/projects/1/import",
            {"provider": "GeneChip", "workunit_name": "chips", "mode": "copy",
             "file": ["scan01_a.cel", "scan01_b.cel"]},
        )
        assert "Assign Extracts" in assign_screen.text
        assert "▶" in assign_screen.text  # workflow highlighting
        workunit = system.db.query("workunit").one()
        result = sci.post(f"/workunits/{workunit['id']}/assign", {
            "extract_1": "1", "extract_2": "2",
        })
        assert "available" in result.text

    def test_search_with_history_and_export(self, sci):
        sci.post("/projects", {"name": "Arabidopsis light", "description": ""})
        first = sci.get("/search?q=arabidopsis")
        assert "result(s)" in first.text
        second = sci.get("/search?q=light")
        assert "Search history" in second.text
        assert "arabidopsis" in second.text  # history entry
        export = sci.get("/search/export?q=arabidopsis")
        assert export.headers[0][1].startswith("text/csv")
        assert "entity_type" in export.text

    def test_saved_query_via_portal(self, sci):
        sci.post("/projects", {"name": "Arabidopsis", "description": ""})
        sci.get("/search?q=arabidopsis")
        response = sci.post("/search/save?q=arabidopsis", {"name": "plants"})
        assert "Saved queries" in response.text
        assert "plants" in response.text

    def test_browse_neighbors(self, sci):
        sci.post("/projects", {"name": "P", "description": ""})
        sci.post("/projects/1/samples", {"name": "s", "species": "",
                                         "description": ""})
        response = sci.get("/browse/sample/1")
        assert "project" in response.text

    def test_browse_obeys_project_acls(self, system, client):
        """A non-member browses neither a project's objects nor, through a
        shared application or annotation, its neighbours."""
        admin = system.directory.principal_for(system.directory.user_by_login("admin"))
        sci = system.directory.principal_for(system.directory.user_by_login("sci"))
        other = system.add_user(admin, login="other", full_name="Other",
                                password="otherpw")
        expert = system.directory.principal_for(system.directory.user_by_login("exp"))
        mine = system.projects.create(sci, "P")
        theirs = system.projects.create(other, "Q")
        sample = system.samples.register_sample(sci, mine.id, "secret sample")
        own_sample = system.samples.register_sample(other, theirs.id, "own sample")
        app = system.applications.register_application(
            admin, name="shared", connector="rserve",
            executable="two_group_analysis", interface=TWO_GROUP_INTERFACE,
        )
        hidden = system.workunits.create(sci, mine.id, "hidden", application_id=app.id)
        shown = system.workunits.create(other, theirs.id, "shown", application_id=app.id)
        attribute = system.annotations.define_attribute(expert, "Tissue")
        annotation, _ = system.annotations.create_annotation(sci, attribute.id, "leaf")
        system.annotations.annotate(sci, annotation.id, "sample", sample.id)
        system.annotations.annotate(other, annotation.id, "sample", own_sample.id)
        client.login("other", "otherpw")
        assert client.get(f"/samples/{sample.id}").status == 403
        assert client.get(f"/browse/project/{mine.id}").status == 403
        assert client.get(f"/browse/sample/{sample.id}").status == 403
        assert client.get(f"/browse/workunit/{hidden.id}").status == 403
        assert client.get("/browse/sample/999").status == 404
        assert client.get("/browse/nosuchtype/1").status == 404
        shared = client.get(f"/browse/application/{app.id}")
        assert shared.status == 200
        assert f"workunit:{shown.id}" in shared.text
        assert f"workunit:{hidden.id}" not in shared.text
        annotated = client.get(f"/browse/annotation/{annotation.id}")
        assert f"sample:{own_sample.id}" in annotated.text
        assert f"sample:{sample.id}<" not in annotated.text
        client.login("sci", "sciencepw")
        member_view = client.get(f"/browse/application/{app.id}")
        assert f"workunit:{hidden.id}" in member_view.text

    def test_admin_requires_admin_role(self, sci):
        assert sci.get("/admin").status == 403

    def test_admin_dashboard_shows_deployment_table(self, client):
        client.login("admin", "adminpw")
        text = client.get("/admin").text
        assert "Final-Remark" in text
        assert "Workunits" in text

    def test_admin_audit_trail(self, client):
        client.login("admin", "adminpw")
        text = client.get("/admin/audit").text
        assert "bootstrap admin" in text or "audit" in text.lower()

    def test_validation_error_rendered(self, sci):
        response = sci.post("/projects", {"name": "  ", "description": ""})
        assert response.status == 400
        assert "Validation failed" in response.text

    def test_not_found_entity(self, sci):
        assert sci.get("/samples/999").status == 404


class TestExperimentScreens:
    def prepare(self, sci, system):
        sci.post("/projects", {"name": "P", "description": ""})
        sci.post("/projects/1/samples", {"name": "s", "species": "",
                                         "description": ""})
        sci.post("/samples/1/extracts", {"name": "scan01 a", "procedure": ""})
        sci.post("/samples/1/extracts", {"name": "scan01 b", "procedure": ""})
        sci.post(
            "/projects/1/import",
            {"provider": "GeneChip", "workunit_name": "chips", "mode": "copy",
             "file": ["scan01_a.cel", "scan01_b.cel"]},
        )
        workunit = system.db.query("workunit").one()
        sci.post(f"/workunits/{workunit['id']}/assign",
                 {"extract_1": "1", "extract_2": "2"})

    def test_register_application_and_run(self, sci, system):
        self.prepare(sci, system)
        response = sci.post("/applications", {
            "name": "two group analysis",
            "connector": "rserve",
            "executable": "two_group_analysis",
            "description": "t-tests",
            "interface": (
                '{"inputs": ["resource"], "parameters": '
                '[{"name": "reference_group", "type": "text", "required": true}]}'
            ),
        })
        assert "two group analysis" in response.text
        experiments = sci.get("/projects/1/experiments")
        assert "Create experiment definition" in experiments.text
        response = sci.post("/projects/1/experiments", {
            "name": "light effect",
            "application_id": "1",
            "attributes": '{"species": "Arabidopsis Thaliana"}',
            "resource": ["1", "2"],
        })
        assert "Run experiment" in response.text
        run = sci.post("/experiments/1/run", {
            "workunit_name": "results",
            "param_reference_group": "_a",
        })
        assert "available" in run.text
        assert "Two Group Analysis Report" in run.text
        # Figure 16: the zip download.
        workunits = system.db.query("workunit").order_by("id", descending=True).all()
        zip_response = sci.get(f"/workunits/{workunits[0]['id']}/results.zip")
        assert zip_response.body[:2] == b"PK"

    def test_bad_interface_json(self, sci):
        response = sci.post("/applications", {
            "name": "x", "connector": "rserve", "executable": "x",
            "description": "", "interface": "{not json",
        })
        assert response.status == 400


class TestAdminReports:
    def test_usage_reports_screen(self, system, client):
        client.login("admin", "adminpw")
        text = client.get("/admin/reports").text
        assert "Busiest projects" in text
        assert "Vocabulary health" in text

    def test_usage_reports_csv(self, system, client):
        client.login("admin", "adminpw")
        response = client.get("/admin/reports.csv")
        assert response.text.startswith("project_id,project")

    def test_run_page_shows_provenance(self, sci, system):
        sci.post("/projects", {"name": "P", "description": ""})
        sci.post("/projects/1/samples", {"name": "s", "species": "", "description": ""})
        sci.post("/samples/1/extracts", {"name": "scan01 a", "procedure": ""})
        sci.post("/samples/1/extracts", {"name": "scan01 b", "procedure": ""})
        sci.post("/projects/1/import",
                 {"provider": "GeneChip", "workunit_name": "chips", "mode": "copy",
                  "file": ["scan01_a.cel", "scan01_b.cel"]})
        workunit = system.db.query("workunit").one()
        sci.post(f"/workunits/{workunit['id']}/assign",
                 {"extract_1": "1", "extract_2": "2"})
        sci.post("/applications", {
            "name": "two group analysis", "connector": "rserve",
            "executable": "two_group_analysis", "description": "",
            "interface": ('{"inputs": ["resource"], "parameters": '
                          '[{"name": "reference_group", "type": "text", '
                          '"required": true}]}')})
        sci.post("/projects/1/experiments", {
            "name": "light effect", "application_id": "1",
            "attributes": "{}", "resource": ["1", "2"]})
        run = sci.post("/experiments/1/run", {
            "workunit_name": "results", "param_reference_group": "_a"})
        assert "Provenance" in run.text
        assert "biological sources" in run.text


class TestPortalEdgeCases:
    def test_search_bad_query_renders_400(self, sci):
        response = sci.get("/search?q=-onlynegation")
        assert response.status == 400

    def test_search_empty_query_shows_form(self, sci):
        response = sci.get("/search")
        assert response.status == 200
        assert "quick search" not in response.text  # that's the home box

    def test_export_without_query(self, sci):
        assert sci.get("/search/export").status == 400

    def test_task_detail_route(self, system, sci):
        expert = system.directory.principal_for(
            system.directory.user_by_login("exp")
        )
        task = system.tasks.create(
            "todo", "Do it",
            assignee_id=system.directory.user_by_login("sci").id,
        )
        response = sci.get(f"/tasks/{task.id}")
        assert "Do it" in response.text

    def test_annotation_detail_lists_objects(self, system, client):
        client.login("exp", "expertpw")
        expert = system.directory.principal_for(
            system.directory.user_by_login("exp")
        )
        attribute = system.annotations.define_attribute(expert, "Tissue")
        annotation, _ = system.annotations.create_annotation(
            expert, attribute.id, "leaf"
        )
        client.post("/projects", {"name": "P", "description": ""})
        client.post("/projects/1/samples", {"name": "s", "species": "",
                                            "description": ""})
        system.annotations.annotate(expert, annotation.id, "sample", 1)
        response = client.get(f"/annotations/{annotation.id}")
        assert "leaf" in response.text
        assert "sample" in response.text

    def test_browse_root_page(self, sci):
        assert "Pick an object" in sci.get("/browse").text

    def test_results_zip_for_pending_workunit_500(self, sci, system):
        sci.post("/projects", {"name": "P", "description": ""})
        principal = system.directory.principal_for(
            system.directory.user_by_login("sci")
        )
        workunit = system.workunits.create(principal, 1, "pending wu")
        response = sci.get(f"/workunits/{workunit.id}/results.zip")
        assert response.status == 500
        # The failure was recorded in the error registry for the admin.
        assert system.errors.open_errors()

    def test_merge_without_ids_400(self, system, client):
        client.login("exp", "expertpw")
        assert client.post("/annotations/merge").status == 400

    def test_workflow_admin_lists_active(self, system, client):
        client.login("admin", "adminpw")
        admin = system.directory.principal_for(
            system.directory.user_by_login("admin")
        )
        system.workflow.start(admin, "run_experiment")
        response = client.get("/admin/workflows")
        assert "run_experiment" in response.text

    def test_resolve_error_via_portal(self, system, client):
        client.login("admin", "adminpw")
        record = system.errors.report("test", "boom")
        response = client.post(f"/admin/errors/{record.id}/resolve")
        assert "boom" not in response.text


class TestOneTransactionPerWriteRequest:
    """Every write request commits once: what its handler, the services
    it calls and the audit log write lands in one transaction."""

    @pytest.fixture(autouse=True)
    def application(self, system):
        admin = system.directory.principal_for(
            system.directory.user_by_login("admin")
        )
        system.applications.register_application(
            admin, name="two group analysis", connector="rserve",
            executable="two_group_analysis", interface=TWO_GROUP_INTERFACE,
        )

    @staticmethod
    def commits(system) -> float:
        return system.obs.metrics.get("storage_commits_total").value

    @staticmethod
    def flow(sci, system):
        """The demo flow's POSTs, each yielded as its response."""
        yield sci.post("/projects", {"name": "P", "description": ""},
                       follow_redirects=False)
        yield sci.post("/projects/1/samples",
                       {"name": "s", "species": "", "description": ""},
                       follow_redirects=False)
        for letter in ("a", "b"):
            yield sci.post("/samples/1/extracts",
                           {"name": f"scan01 {letter}", "procedure": ""},
                           follow_redirects=False)
        yield sci.post(
            "/projects/1/import",
            {"provider": "GeneChip", "workunit_name": "chips", "mode": "copy",
             "file": ["scan01_a.cel", "scan01_b.cel"]},
            follow_redirects=False,
        )
        yield sci.post("/workunits/1/assign", {"extract_1": "1", "extract_2": "2"},
                       follow_redirects=False)
        yield sci.post("/projects/1/experiments", {
            "name": "light effect", "application_id": "1", "attributes": "{}",
            "resource": ["1", "2"],
        }, follow_redirects=False)
        yield sci.post("/experiments/1/run",
                       {"workunit_name": "results", "param_reference_group": "_a"},
                       follow_redirects=False)

    def test_each_demo_flow_post_commits_once(self, sci, system):
        before = self.commits(system)
        audits = system.db.count("audit_entry")
        steps = 0
        for response in self.flow(sci, system):
            after = self.commits(system)
            assert response.status == 303
            assert after - before == 1, dict(response.headers)["Location"]
            before = after
            steps += 1
        assert steps == 8
        # The audit trail still records every change, inside those commits.
        assert system.db.count("audit_entry") > audits + steps
        result = system.db.query("workunit").where("name", "=", "results").one()
        assert result["status"] == "available"

    @pytest.mark.parametrize("error, status", [
        (lambda: ValidationError("refused late", {"name": "late"}), 400),
        (lambda: RuntimeError("crashed late"), 500),
    ])
    def test_a_handler_that_raises_after_writing_leaves_nothing(
        self, sci, system, monkeypatch, error, status
    ):
        sci.post("/projects", {"name": "P", "description": ""})
        register = system.samples.register_sample

        def register_then_fail(*args, **kwargs):
            register(*args, **kwargs)  # the sample row and its audit row
            raise error()

        monkeypatch.setattr(system.samples, "register_sample", register_then_fail)
        samples, audits = system.db.count("sample"), system.db.count("audit_entry")
        seq = system.db.committed_seq
        response = sci.post("/projects/1/samples",
                            {"name": "half", "species": "", "description": ""})
        assert response.status == status
        assert system.db.count("sample") == samples
        assert system.db.count("audit_entry") == audits
        assert not system.db.query("sample").where("name", "=", "half").exists()
        # Nothing the request wrote was committed (an error report may be).
        assert system.db.committed_seq <= seq + 1
        # The writer lock is free again: the next write request commits.
        assert sci.post("/projects", {"name": "Q", "description": ""},
                        follow_redirects=False).status == 303

    def test_run_and_import_finish_through_the_queue(self, sci, system):
        """With workers draining the queue, POST import and POST run do
        their work inline: the request's open transaction cannot wait
        on a worker, which would need the rows it has not committed.
        No job is enqueued, each request is still one commit, and
        neither runs out a queue wait."""
        system.start_workers(workers=2, lease_seconds=30.0, name="portal")
        try:
            assert system.queue.active_worker_count() > 0
            timings = {}
            for response in self.flow(sci, system):
                assert response.status == 303
            for label, url, fields in (
                ("import", "/projects/1/import",
                 {"provider": "GeneChip", "workunit_name": "again",
                  "mode": "copy", "file": ["scan01_a.cel"]}),
                ("run", "/experiments/1/run",
                 {"workunit_name": "rerun", "param_reference_group": "_a"}),
            ):
                before = self.commits(system)
                started = time.monotonic()
                response = sci.post(url, fields, follow_redirects=False)
                timings[label] = time.monotonic() - started
                assert response.status == 303, label
                assert self.commits(system) - before == 1, label
            assert max(timings.values()) < 5.0, timings
            assert system.queue.list() == []
        finally:
            system.stop_workers()

    def test_no_writer_lock_during_a_fetch_or_an_application_run(
        self, sci, system, monkeypatch
    ):
        """POST import fetches from the provider, and POST run runs the
        application, before the request's first write: the request's
        transaction does not hold the writer lock while they take their
        time, so other writers do not queue behind them."""
        def lock_free() -> bool:
            taken = []

            def other():
                if system.db._lock.acquire(timeout=1.0):
                    system.db._lock.release()
                    taken.append(True)

            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            return bool(taken)

        free = {}
        provider = system.imports.provider("GeneChip")
        fetch, run = provider.fetch, system.applications.run

        def observed_fetch(*args, **kwargs):
            free.setdefault("fetch", lock_free())
            return fetch(*args, **kwargs)

        def observed_run(*args, **kwargs):
            free.setdefault("run", lock_free())
            return run(*args, **kwargs)

        monkeypatch.setattr(provider, "fetch", observed_fetch)
        monkeypatch.setattr(system.applications, "run", observed_run)
        for response in self.flow(sci, system):
            assert response.status == 303
        assert free == {"fetch": True, "run": True}
        result = system.db.query("workunit").where("name", "=", "results").one()
        assert result["status"] == "available"
