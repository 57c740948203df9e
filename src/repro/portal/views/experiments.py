"""Application registration and experiment screens (Figures 12–16)."""

from __future__ import annotations

import json

from repro.portal.http import Request, Response
from repro.portal.render import (
    definition_list,
    dropdown,
    esc,
    form,
    link,
    page,
    table,
    text_input,
)
from repro.workflow.render import render_ascii


def register(router, portal) -> None:
    system = portal.system

    @router.get("/applications")
    def application_list(request: Request) -> Response:
        principal = portal.principal(request)
        rows = [
            (app.id, app.name, app.connector, app.description)
            for app in system.applications.active_applications()
        ]
        body = table(["id", "application", "connector", "description"], rows)
        connectors = system.applications.connector_kinds()
        fields = (
            text_input("name")
            + dropdown("connector", [(k, k) for k in connectors])
            + text_input("executable")
            + text_input("description")
            + '<label>interface (JSON): <textarea name="interface">'
            + esc(json.dumps({"inputs": ["resource"], "parameters": []}))
            + "</textarea></label><br>"
        )
        body += "<h2>Register application (Figure 12)</h2>" + form(
            "/applications", fields, submit="Register"
        )
        return Response(page("Applications", body, user=principal.login))

    @router.post("/applications")
    def register_application(request: Request) -> Response:
        principal = portal.principal(request)
        try:
            interface = json.loads(request.get("interface") or "{}")
        except json.JSONDecodeError:
            return Response(page("Error", "<p>interface is not valid JSON</p>"),
                            status=400)
        system.applications.register_application(
            principal,
            name=request.get("name"),
            connector=request.get("connector"),
            executable=request.get("executable"),
            interface=interface,
            description=request.get("description"),
        )
        return Response.redirect("/applications")

    @router.get("/projects/<int:project_id>/experiments")
    def experiment_list(request: Request) -> Response:
        principal = portal.principal(request)
        project = system.projects.get(principal, request.params["project_id"])
        experiments = system.experiments.of_project(principal, project.id)
        rows = [
            (
                e.id,
                link(f"/experiments/{e.id}", e.name),
                len(e.resource_ids),
                json.dumps(e.attributes),
            )
            for e in experiments
        ]
        body = table(["id", "experiment", "#resources", "attributes"], rows)

        applications = system.applications.active_applications()
        workunits = system.workunits.of_project(principal, project.id)
        resource_boxes = ""
        for workunit in workunits:
            for resource in system.workunits.resources_of(principal, workunit.id):
                resource_boxes += (
                    f'<label><input type="checkbox" name="resource" '
                    f'value="{resource.id}"> {esc(resource.name)} '
                    f"(workunit {workunit.id})</label><br>"
                )
        fields = (
            text_input("name")
            + dropdown(
                "application_id",
                [(a.id, a.name) for a in applications],
                label="application",
            )
            + text_input("attributes", label="attributes (JSON)", value="{}")
            + resource_boxes
        )
        body += "<h2>Create experiment definition (Figure 13)</h2>" + form(
            f"/projects/{project.id}/experiments", fields, submit="Create"
        )
        return Response(
            page(f"Experiments — {project.name}", body, user=principal.login)
        )

    @router.post("/projects/<int:project_id>/experiments")
    def define_experiment(request: Request) -> Response:
        principal = portal.principal(request)
        try:
            attributes = json.loads(request.get("attributes") or "{}")
        except json.JSONDecodeError:
            return Response(page("Error", "<p>attributes are not valid JSON</p>"),
                            status=400)
        application_id = request.get_int("application_id")
        if application_id is None:
            return Response(page("Error", "<p>pick an application</p>"), status=400)
        experiment = system.experiments.define(
            principal,
            request.params["project_id"],
            request.get("name"),
            application_id=application_id,
            resource_ids=[int(v) for v in request.get_list("resource")],
            attributes=attributes,
        )
        return Response.redirect(f"/experiments/{experiment.id}")

    @router.get("/experiments/<int:experiment_id>")
    def experiment_detail(request: Request) -> Response:
        principal = portal.principal(request)
        experiment = system.experiments.get(
            principal, request.params["experiment_id"]
        )
        application = system.applications.get(experiment.application_id)
        parameter_fields = ""
        for spec in application.interface.get("parameters", []):
            parameter_fields += text_input(
                f"param_{spec['name']}",
                label=f"{spec['name']}"
                + (" (required)" if spec.get("required") else ""),
                value=str(spec.get("default", "")),
            )
        body = definition_list(
            [("application", application.name),
             ("resources", len(experiment.resource_ids)),
             ("attributes", json.dumps(experiment.attributes))]
        )
        body += "<h2>Run experiment (Figure 14)</h2>" + form(
            f"/experiments/{experiment.id}/run",
            text_input("workunit_name", label="result workunit name")
            + parameter_fields,
            submit="Run",
        )
        return Response(page(experiment.name, body, user=principal.login))

    @router.post("/experiments/<int:experiment_id>/run")
    def run_experiment(request: Request) -> Response:
        principal = portal.principal(request)
        experiment = system.experiments.get(
            principal, request.params["experiment_id"]
        )
        application = system.applications.get(experiment.application_id)
        parameters = {}
        for spec in application.interface.get("parameters", []):
            raw = request.get(f"param_{spec['name']}")
            if raw != "":
                parameters[spec["name"]] = raw
        workunit = system.experiments.run(
            principal,
            experiment.id,
            workunit_name=request.get("workunit_name"),
            parameters=parameters,
        )
        return Response.redirect(f"/workunits/{workunit.id}/run")

    @router.get("/workunits/<int:workunit_id>/run")
    def run_status(request: Request) -> Response:
        """Figure 15/16: the run's workflow state and result links."""
        principal = portal.principal(request)
        workunit = system.workunits.get(principal, request.params["workunit_id"])
        body = f"<p>status: <b>{workunit.status}</b></p>"
        for instance in system.workflow.for_entity("workunit", workunit.id):
            definition = system.workflow.definition(instance.definition)
            body += (
                "<pre>"
                + esc(render_ascii(definition, instance.current_step))
                + f"</pre><p>workflow status: {instance.status}</p>"
            )
        if workunit.status == "available":
            body += (
                f'<p>{link(f"/workunits/{workunit.id}", "view result workunit")} | '
                f'{link(f"/workunits/{workunit.id}/results.zip", "download zip")}</p>'
            )
            report = system.results.read_report(workunit.id)
            if report:
                body += f"<h2>Report</h2><pre>{esc(report)}</pre>"
            provenance = system.provenance.trace(workunit.id)
            body += (
                "<h2>Provenance (reproducible by third parties)</h2>"
                f"<pre>{esc(provenance.render_text())}</pre>"
            )
        return Response(
            page(f"Run — {workunit.name}", body, user=principal.login)
        )
