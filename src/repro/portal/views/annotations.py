"""Annotation review: release, similarity warnings, merge (Figures 4–7)."""

from __future__ import annotations

from repro.portal.http import Request, Response
from repro.portal.render import Html, esc, form, link, page, table


def register(router, portal) -> None:
    system = portal.system

    @router.get("/annotations/review")
    def review_queue(request: Request) -> Response:
        principal = portal.principal(request)
        pending = system.annotations.pending_review()
        rows = []
        for annotation in pending:
            release = (
                f'<form method="post" action="/annotations/{annotation.id}/release" '
                f'style="display:inline"><button>release</button></form>'
            )
            reject = (
                f'<form method="post" action="/annotations/{annotation.id}/reject" '
                f'style="display:inline"><button>reject</button></form>'
            )
            rows.append(
                (annotation.id, annotation.value, annotation.status,
                 Html(release + " " + reject))
            )
        body = "<h2>Pending review</h2>" + table(
            ["id", "value", "status", "actions"], rows
        )
        recommendations = system.annotations.merge_recommendations()
        rec_rows = []
        for rec in recommendations:
            merge_form = form(
                f"/annotations/merge?keep={rec.keep_id}&merge={rec.merge_id}",
                "",
                submit="merge",
            )
            rec_rows.append(
                (rec.keep_value, rec.merge_value,
                 f"{rec.score:.0%}", merge_form)
            )
        body += "<h2>Similar annotations (merge recommendations)</h2>" + table(
            ["keep", "merge away", "similarity", "action"], rec_rows
        )
        return Response(page("Annotation Review", body, user=principal.login))

    @router.post("/annotations/<int:annotation_id>/release")
    def release(request: Request) -> Response:
        principal = portal.principal(request)
        system.annotations.release(principal, request.params["annotation_id"])
        return Response.redirect("/annotations/review")

    @router.post("/annotations/<int:annotation_id>/reject")
    def reject(request: Request) -> Response:
        principal = portal.principal(request)
        system.annotations.reject(principal, request.params["annotation_id"])
        return Response.redirect("/annotations/review")

    @router.post("/annotations/merge")
    def merge(request: Request) -> Response:
        principal = portal.principal(request)
        keep_id = request.get_int("keep")
        merge_id = request.get_int("merge")
        if keep_id is None or merge_id is None:
            return Response("keep and merge ids required", status=400)
        system.annotations.merge(principal, keep_id, merge_id)
        return Response.redirect("/annotations/review")

    @router.get("/annotations/<int:annotation_id>")
    def annotation_detail(request: Request) -> Response:
        principal = portal.principal(request)
        annotation = system.annotations.resolve(request.params["annotation_id"])
        entities = system.annotations.entities_for(annotation.id)
        rows = [
            (entity_type, link(f"/{entity_type}s/{entity_id}", entity_id))
            for entity_type, entity_id in entities
        ]
        body = (
            f"<p>value: <b>{esc(annotation.value)}</b> "
            f"({annotation.status})</p>"
            "<h2>Annotated objects</h2>" + table(["type", "object"], rows)
        )
        return Response(
            page(f"Annotation {annotation.id}", body, user=principal.login)
        )
