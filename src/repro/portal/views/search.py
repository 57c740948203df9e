"""Search screens: quick/advanced search, history, saved queries, export."""

from __future__ import annotations

from functools import lru_cache
from urllib.parse import urlencode

from repro.errors import EntityNotFound, QuerySyntaxError
from repro.graphview.links import ObjectRef
from repro.portal.http import Request, Response
from repro.portal.render import esc, form, link, page, table, text_input
from repro.search.export import export_csv
from repro.security.acl import Permission, project_of


@lru_cache(maxsize=4096)
def _with_query(path: str, query: str) -> str:
    """*path* with *query* as its URL-encoded ``q`` parameter; a
    builder escapes the whole URL once for its attribute.  Cached: a
    search screen links every history entry (up to 50), and
    ``urlencode`` costs several times what the rest of a link does."""
    return f"{path}?{urlencode({'q': query})}"


def register(router, portal) -> None:
    system = portal.system

    @router.get("/search")
    def search_screen(request: Request) -> Response:
        principal = portal.principal(request)
        history = portal.history_for(request)
        query = request.get("q").strip()
        body = (
            '<form method="get" action="/search">'
            f'<input type="text" name="q" value="{esc(query)}" size="50" '
            'placeholder="terms, name:value, type:sample, -not, a OR b">'
            "<button>Search</button></form>"
        )
        if query:
            try:
                results = system.search.search(principal, query)
            except QuerySyntaxError as exc:
                return Response(
                    page("Search", body + f"<p>{esc(exc)}</p>",
                         user=principal.login),
                    status=400,
                )
            history.record(query)
            rows = [
                (
                    r.entity_type,
                    link(f"/{r.entity_type}s/{r.entity_id}", r.label),
                    f"{r.score:.3f}",
                    r.snippet,
                )
                for r in results
            ]
            body += f"<h2>{len(results)} result(s)</h2>" + table(
                ["type", "object", "score", "snippet"], rows
            )
            body += (
                f'<p>{link(_with_query("/search/export", query), "export CSV")}</p>'
            )
            body += "<h3>Save this query</h3>" + form(
                _with_query("/search/save", query), text_input("name"),
                submit="Save"
            )
        if len(history):
            body += "<h2>Search history</h2><ul>" + "".join(
                f'<li>{link(_with_query("/search", entry), entry)}</li>'
                for entry in history.entries()
            ) + "</ul>"
        saved = system.saved_queries.list_for(principal)
        if saved:
            body += "<h2>Saved queries</h2><ul>" + "".join(
                f'<li>{link(_with_query("/search", s.query), s.name)}'
                f" — <code>{esc(s.query)}</code></li>"
                for s in saved
            ) + "</ul>"
        return Response(page("Search", body, user=principal.login))

    @router.post("/search/save")
    def save_query(request: Request) -> Response:
        principal = portal.principal(request)
        query = request.get("q").strip()
        system.saved_queries.save(principal, request.get("name"), query)
        return Response.redirect(_with_query("/search", query))

    @router.get("/search/export")
    def export(request: Request) -> Response:
        principal = portal.principal(request)
        query = request.get("q").strip()
        if not query:
            return Response("missing query", status=400)
        try:
            results = system.search.search(principal, query, limit=1000)
        except QuerySyntaxError as exc:
            return Response(str(exc), status=400)
        payload = export_csv(results)
        return Response.download(
            payload.encode("utf-8"), "search_results.csv", "text/csv"
        )

    @router.get("/browse")
    def browse_root(request: Request) -> Response:
        principal = portal.principal(request)
        body = (
            "<p>Pick an object to browse its network, e.g. "
            f'{link("/browse/project/1", "project 1")}.</p>'
        )
        return Response(page("Browse", body, user=principal.login))

    @router.get("/browse/<str:entity_type>/<int:entity_id>")
    def browse(request: Request) -> Response:
        """One hop of the object network at the request's snapshot,
        limited to objects in projects the principal may read."""
        principal = portal.principal(request)
        snap = request.snapshot
        kind, pk = request.params["entity_type"], request.params["entity_id"]
        if not system.db.has_table(kind) or not snap.contains(kind, pk):
            raise EntityNotFound(kind, pk)

        def project(ref: ObjectRef) -> int | None:
            table, key = ref.entity_type, ref.entity_id
            row = snap.get_or_none(table, key) if system.db.has_table(table) else None
            return None if row is None else project_of(table, key, row, lambda: snap)

        ref = ObjectRef(kind, pk)
        if (root := project(ref)) is not None:
            system.acl.require(principal, Permission.READ, root)
        neighbors = system.links.neighbors(ref, snapshot=snap)
        if not principal.is_expert:
            readable = {None, *system.acl.visible_project_ids(principal)}
            neighbors = [(other, label) for other, label in neighbors
                         if project(other) in readable]
        rows = [
            (
                neighbor.entity_type,
                link(
                    f"/browse/{neighbor.entity_type}/{neighbor.entity_id}",
                    str(neighbor),
                ),
                label,
            )
            for neighbor, label in neighbors
        ]
        body = table(["type", "object", "link"], rows)
        return Response(
            page(f"Browse — {ref}", body, user=principal.login)
        )
