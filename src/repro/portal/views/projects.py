"""Projects, samples and extracts: browse lists and registration forms
(paper Figures 2 and 3)."""

from __future__ import annotations

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


def _vocab_options(portal, applies_to: str) -> list[tuple[str, list]]:
    """(attribute name, dropdown options) for every attribute of a type."""
    result = []
    for attribute in portal.system.annotations.attributes_for(applies_to):
        options = [
            (annotation.id, annotation.value)
            for annotation in portal.system.annotations.vocabulary(attribute.id)
        ]
        result.append((attribute, options))
    return result


def _collect_annotations(portal, principal, request: Request, applies_to: str):
    """Resolve the form's vocabulary selections + inline new values.

    Returns annotation ids to attach.  A filled ``new_attr_<id>`` box
    creates a pending annotation exactly like the demo's Figure 2.
    """
    annotation_ids = []
    for attribute in portal.system.annotations.attributes_for(applies_to):
        selected = request.get(f"attr_{attribute.id}")
        created = request.get(f"new_attr_{attribute.id}").strip()
        if created:
            annotation, _similar = portal.system.annotations.create_annotation(
                principal, attribute.id, created
            )
            annotation_ids.append(annotation.id)
        elif selected:
            annotation_ids.append(int(selected))
    return annotation_ids


def register(router, portal) -> None:
    system = portal.system

    @router.get("/projects")
    def project_list(request: Request) -> Response:
        principal = portal.principal(request)
        rows = [
            (
                project.id,
                link(f"/projects/{project.id}", project.name),
                project.description,
            )
            for project in system.projects.visible_to(principal)
        ]
        body = table(["id", "project", "description"], rows)
        body += "<h2>New project</h2>" + form(
            "/projects", text_input("name") + text_input("description")
        )
        return Response(page("Projects", body, user=principal.login))

    @router.post("/projects")
    def create_project(request: Request) -> Response:
        principal = portal.principal(request)
        project = system.projects.create(
            principal, request.get("name"),
            description=request.get("description"),
        )
        return Response.redirect(f"/projects/{project.id}")

    @router.get("/projects/<int:project_id>")
    def project_detail(request: Request) -> Response:
        principal = portal.principal(request)
        project = system.projects.get(principal, request.params["project_id"])
        samples = system.samples.samples_of_project(principal, project.id)
        workunits = system.workunits.of_project(principal, project.id)
        body = definition_list(
            [("description", project.description), ("samples", len(samples)),
             ("workunits", len(workunits))]
        )
        # Both lists hold every row of the project, and the page is
        # re-rendered after each write to it: each row is built as one
        # f-string, the HTML table() and link() would give, in half the
        # time.
        rows = "".join([
            f'<tr><td>{s.id}</td><td><a href="/samples/{s.id}">'
            f"{esc(s.name)}</a></td><td>{esc(s.species)}</td></tr>"
            for s in samples
        ])
        body += (
            "<h2>Samples</h2><table><tr><th>id</th><th>sample</th>"
            f"<th>species</th></tr>{rows}</table>"
        )
        body += f'<p>{link(f"/projects/{project.id}/samples/new", "register sample")} | '
        body += f'{link(f"/projects/{project.id}/samples/batch", "batch register")} | '
        body += f'{link(f"/projects/{project.id}/import", "import data")} | '
        body += f'{link(f"/projects/{project.id}/experiments", "experiments")}</p>'
        rows = "".join([
            f'<tr><td>{w.id}</td><td><a href="/workunits/{w.id}">'
            f"{esc(w.name)}</a></td><td>{esc(w.status)}</td></tr>"
            for w in workunits
        ])
        body += (
            "<h2>Workunits</h2><table><tr><th>id</th><th>workunit</th>"
            f"<th>status</th></tr>{rows}</table>"
        )
        return Response(page(project.name, body, user=principal.login))

    @router.get("/projects/<int:project_id>/samples/new")
    def sample_form(request: Request) -> Response:
        principal = portal.principal(request)
        project = system.projects.get(principal, request.params["project_id"])
        fields = text_input("name") + text_input("species") + text_input(
            "description"
        )
        for attribute, options in _vocab_options(portal, "sample"):
            fields += dropdown(
                f"attr_{attribute.id}", options, label=attribute.name,
                allow_new=True,
            )
        body = form(f"/projects/{project.id}/samples", fields, submit="Register")
        return Response(
            page(f"Register Sample — {project.name}", body, user=principal.login)
        )

    @router.post("/projects/<int:project_id>/samples")
    def create_sample(request: Request) -> Response:
        principal = portal.principal(request)
        project_id = request.params["project_id"]
        annotation_ids = _collect_annotations(portal, principal, request, "sample")
        sample = system.samples.register_sample(
            principal,
            project_id,
            request.get("name"),
            species=request.get("species"),
            description=request.get("description"),
            annotation_ids=annotation_ids,
        )
        return Response.redirect(f"/samples/{sample.id}")

    @router.get("/projects/<int:project_id>/samples/batch")
    def batch_form(request: Request) -> Response:
        principal = portal.principal(request)
        project = system.projects.get(principal, request.params["project_id"])
        body = form(
            f"/projects/{project.id}/samples/batch",
            '<label>names (one per line):<br>'
            '<textarea name="names" rows="8" cols="40"></textarea></label><br>'
            + text_input("species"),
            submit="Register all",
        )
        return Response(
            page(f"Batch Register Samples — {project.name}", body,
                 user=principal.login)
        )

    @router.post("/projects/<int:project_id>/samples/batch")
    def batch_create(request: Request) -> Response:
        principal = portal.principal(request)
        project_id = request.params["project_id"]
        names = [
            line.strip()
            for line in request.get("names").splitlines()
            if line.strip()
        ]
        system.samples.batch_register_samples(
            principal, project_id, names, species=request.get("species")
        )
        return Response.redirect(f"/projects/{project_id}")

    @router.get("/samples/<int:sample_id>")
    def sample_detail(request: Request) -> Response:
        principal = portal.principal(request)
        sample = system.samples.get_sample(principal, request.params["sample_id"])
        extracts = system.samples.extracts_of_sample(principal, sample.id)
        annotations = system.annotations.annotations_for("sample", sample.id)
        body = definition_list(
            [("species", sample.species), ("project", sample.project_id),
             ("annotations", ", ".join(a.value for a in annotations) or "—")]
        )
        body += "<h2>Extracts</h2>" + table(
            ["id", "extract", "procedure"],
            [(e.id, e.name, e.procedure) for e in extracts],
        )
        body += f'<p>{link(f"/samples/{sample.id}/extracts/new", "register extract")} | '
        body += f'{link(f"/samples/{sample.id}/clone", "clone sample")}</p>'
        return Response(page(sample.name, body, user=principal.login))

    @router.get("/samples/<int:sample_id>/clone")
    def clone_form(request: Request) -> Response:
        principal = portal.principal(request)
        sample = system.samples.get_sample(principal, request.params["sample_id"])
        body = form(
            f"/samples/{sample.id}/clone",
            text_input("name", value=f"{sample.name} (copy)"),
            submit="Clone",
        )
        return Response(page(f"Clone {sample.name}", body, user=principal.login))

    @router.post("/samples/<int:sample_id>/clone")
    def do_clone(request: Request) -> Response:
        principal = portal.principal(request)
        clone = system.samples.clone_sample(
            principal, request.params["sample_id"], request.get("name")
        )
        return Response.redirect(f"/samples/{clone.id}")

    @router.get("/samples/<int:sample_id>/extracts/new")
    def extract_form(request: Request) -> Response:
        principal = portal.principal(request)
        sample = system.samples.get_sample(principal, request.params["sample_id"])
        fields = text_input("name") + text_input("procedure")
        for attribute, options in _vocab_options(portal, "extract"):
            fields += dropdown(
                f"attr_{attribute.id}", options, label=attribute.name,
                allow_new=True,
            )
        body = form(f"/samples/{sample.id}/extracts", fields, submit="Register")
        return Response(
            page(f"Register Extract — {sample.name}", body, user=principal.login)
        )

    @router.post("/samples/<int:sample_id>/extracts")
    def create_extract(request: Request) -> Response:
        principal = portal.principal(request)
        sample_id = request.params["sample_id"]
        annotation_ids = _collect_annotations(portal, principal, request, "extract")
        extract = system.samples.register_extract(
            principal,
            sample_id,
            request.get("name"),
            procedure=request.get("procedure"),
            annotation_ids=annotation_ids,
        )
        return Response.redirect(f"/samples/{sample_id}")

    @router.get("/workunits/<int:workunit_id>")
    def workunit_detail(request: Request) -> Response:
        principal = portal.principal(request)
        workunit = system.workunits.get(principal, request.params["workunit_id"])
        resources = system.workunits.resources_of(principal, workunit.id)
        body = definition_list(
            [("status", workunit.status), ("project", workunit.project_id),
             ("parameters", workunit.parameters)]
        )
        body += table(
            ["id", "resource", "extract", "input?", "uri"],
            [
                (r.id, r.name, r.extract_id or "—", "yes" if r.is_input else "",
                 r.uri)
                for r in resources
            ],
        )
        if workunit.status == "available" and any(not r.is_input for r in resources):
            body += f'<p>{link(f"/workunits/{workunit.id}/results.zip", "download results zip")}</p>'
        return Response(page(workunit.name, body, user=principal.login))

    @router.get("/workunits/<int:workunit_id>/results.zip")
    def results_zip(request: Request) -> Response:
        principal = portal.principal(request)
        workunit_id = request.params["workunit_id"]
        payload = system.results.as_zip_bytes(principal, workunit_id)
        return Response.download(
            payload, f"workunit_{workunit_id}_results.zip", "application/zip"
        )
