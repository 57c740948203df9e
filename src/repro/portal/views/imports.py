"""Data import screens (Figures 9–11): pick provider files, create the
workunit, assign extracts with best-match prefills."""

from __future__ import annotations

from repro.portal.http import Request, Response
from repro.portal.render import dropdown, esc, page, table, text_input
from repro.workflow.render import render_ascii


def register(router, portal) -> None:
    system = portal.system

    @router.get("/projects/<int:project_id>/import")
    def import_form(request: Request) -> Response:
        principal = portal.principal(request)
        project = system.projects.get(principal, request.params["project_id"])
        provider_name = request.get("provider")
        providers = system.imports.provider_names()
        body = (
            '<form method="get">'
            + dropdown(
                "provider",
                [(name, name) for name in providers],
                selected=provider_name,
                label="data provider",
            )
            + "<button>List files</button></form>"
        )
        if provider_name:
            files = system.imports.browse(provider_name)
            checkboxes = "".join(
                f'<label><input type="checkbox" name="file" '
                f'value="{esc(f.name)}"> {esc(f.name)} '
                f"({f.size_bytes} B, {f.modified})</label><br>"
                for f in files
            )
            body += (
                f'<form method="post" action="/projects/{project.id}/import">'
                f'<input type="hidden" name="provider" value="{esc(provider_name)}">'
                + text_input("workunit_name", label="workunit name")
                + dropdown("mode", [("copy", "copy"), ("link", "link")],
                           selected="copy", label="import mode")
                + checkboxes
                + "<button>Create workunit</button></form>"
            )
        return Response(
            page(f"Create Workunit — {project.name}", body, user=principal.login)
        )

    @router.post("/projects/<int:project_id>/import")
    def do_import(request: Request) -> Response:
        principal = portal.principal(request)
        workunit, _resources, _instance = system.imports.import_files(
            principal,
            request.params["project_id"],
            request.get("provider"),
            request.get_list("file"),
            workunit_name=request.get("workunit_name"),
            mode=request.get("mode") or "copy",
        )
        return Response.redirect(f"/workunits/{workunit.id}/assign")

    @router.get("/workunits/<int:workunit_id>/assign")
    def assign_form(request: Request) -> Response:
        principal = portal.principal(request)
        workunit = system.workunits.get(principal, request.params["workunit_id"])
        resources = system.workunits.resources_of(principal, workunit.id)
        extracts = system.samples.extracts_of_project(
            principal, workunit.project_id
        )
        proposals = {
            p.resource_id: p.extract_id
            for p in system.imports.proposals_for(principal, workunit.id)
        }
        extract_options = [(e.id, e.name) for e in extracts]
        rows = []
        for resource in resources:
            rows.append(
                (
                    resource.name,
                    dropdown(
                        f"extract_{resource.id}",
                        extract_options,
                        selected=proposals.get(resource.id, resource.extract_id),
                    ),
                )
            )
        workflow_view = ""
        for instance in system.workflow.for_entity("workunit", workunit.id):
            definition = system.workflow.definition(instance.definition)
            workflow_view = (
                "<pre>" + esc(render_ascii(definition, instance.current_step))
                + "</pre>"
            )
        body = (
            workflow_view
            + f'<form method="post" action="/workunits/{workunit.id}/assign">'
            + table(["resource", "extract (best match preselected)"], rows)
            + "<button>Save</button></form>"
        )
        return Response(
            page(f"Assign Extracts — {workunit.name}", body, user=principal.login)
        )

    @router.post("/workunits/<int:workunit_id>/assign")
    def do_assign(request: Request) -> Response:
        principal = portal.principal(request)
        workunit_id = request.params["workunit_id"]
        resources = system.workunits.resources_of(principal, workunit_id)
        assignments = {}
        for resource in resources:
            selected = request.get(f"extract_{resource.id}")
            if selected:
                assignments[resource.id] = int(selected)
        system.imports.apply_assignments(principal, workunit_id, assignments)
        return Response.redirect(f"/workunits/{workunit_id}")
