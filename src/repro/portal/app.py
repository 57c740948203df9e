"""The portal WSGI application."""

from __future__ import annotations

from typing import Callable

from repro.errors import (
    AccessDenied,
    AuthenticationError,
    BFabricError,
    EntityNotFound,
    ValidationError,
)
from repro.facade import BFabric
from repro.obs import TraceContext
from repro.portal.caching import CachePolicy
from repro.portal.http import Request, Response
from repro.portal.render import esc, page
from repro.portal.routing import Router
from repro.search.history import SearchHistory
from repro.storage.table import track_reads

_SESSION_COOKIE = "bfabric_session"

#: Read-your-writes marker: the commit sequence this browser last wrote.
#: Replica-routed GETs wait until a replica has applied at least this
#: sequence before serving from it, so a user always sees their own
#: POST on the very next page load even when every replica lags.
_SEEN_SEQ_COOKIE = "bfabric_seen_seq"

#: Paths reachable without a login session.
_PUBLIC_PATHS = {"/login", "/ping", "/api/health"}


class PortalApplication:
    """WSGI callable exposing the whole system."""

    def __init__(self, system: BFabric, *, replicas=None):
        """*replicas* is an optional
        :class:`~repro.replication.manager.ReplicaSet`: when given,
        every GET's read snapshot is routed to the least-lagged healthy
        replica (primary fallback), so browse traffic scales across the
        replica fleet while writes keep hitting the primary."""
        self.system = system
        self.replicas = replicas
        self.router = Router()
        self.cache = CachePolicy(system.db)
        self._histories: dict[str, SearchHistory] = {}
        self._register_views()

    # -- WSGI entry ----------------------------------------------------------------

    def __call__(self, environ: dict, start_response: Callable):
        request = Request.from_environ(environ)
        response = self.handle(request)
        return response.wsgi(start_response)

    def handle(self, request: Request) -> Response:
        """Dispatch one request with timing (the WSGI middleware layer).

        Every request is traced and recorded as a labelled counter +
        latency histogram; the route label is the registered pattern
        (``/project/<int:project_id>``), never the raw path, so metric
        cardinality stays bounded.  Unroutable paths share one
        ``<unmatched>`` label.

        The request span accepts an upstream trace through the
        ``X-Request-Id`` header (``trace_id`` or ``trace_id:span_id``)
        and mints a fresh trace otherwise; either way the response
        echoes the request's own span context back in ``X-Request-Id``,
        so clients hold a correlation id that finds the full trace in
        ``repro debug-bundle`` output.
        """
        obs = self.system.obs
        match = self.router.resolve(request.method, request.path)
        route = match.pattern or "<unmatched>"
        upstream = TraceContext.from_header(request.request_id)
        with obs.tracer.span(
            "http.request", parent=upstream, method=request.method, route=route
        ) as span:
            timer = obs.timer()
            response = self._dispatch(request, match)
            elapsed = timer.elapsed()
            span.set(status=response.status)
        response.headers.append(("X-Request-Id", span.context().to_header()))
        obs.metrics.counter(
            "http_requests_total",
            "Portal requests served",
            labels=("route", "method", "status"),
        ).labels(
            route=route, method=request.method, status=response.status
        ).inc()
        obs.metrics.histogram(
            "http_request_seconds",
            "Portal request latency",
            labels=("route",),
        ).labels(route=route).observe(elapsed)
        obs.log.log(
            "http.request",
            method=request.method,
            path=request.path,
            route=route,
            status=response.status,
            duration=elapsed,
            trace_id=span.trace_id,
        )
        return response

    def _dispatch(self, request: Request, match=None) -> Response:
        """Session check + routing + error mapping (no instrumentation).

        Every GET runs against one MVCC snapshot (``request.snapshot``),
        opened here and closed when the view returns.  It is bound to
        the worker thread's read view for the dispatch, so every
        ``Database`` and ``Repository`` read the view makes — services,
        ACL checks, search — resolves through it: the page renders the
        committed state at one sequence number, never a row of a
        transaction that is still open, never blocks on a concurrent
        writer, and repeated reads within the view agree with each
        other.  Every other request runs its handler inside one
        ``db.transaction()``: the handler's writes (and the services',
        the ORM sessions', the audit rows') join it and commit once,
        before the response leaves — a ``303`` still means durable — or
        roll back together when an exception escapes the handler, so
        the error response mapped below leaves nothing half-written.
        The transaction takes the writer lock at its first write, so a
        handler's reads and slow outside calls made before it (a
        provider fetch, an application run) hold no other writer up.

        The snapshot is opened *inside* the ``try`` and closed in the
        ``finally`` however dispatch exits — including the catch-all
        below — so a view blowing up in a worker thread can never
        strand a snapshot and pin the MVCC pruning horizon for the
        life of the process.

        Cacheable GETs go through :class:`~repro.portal.caching
        .CachePolicy`: a matching ``If-None-Match`` is answered ``304``
        before any snapshot is opened or view run, and fresh renders
        leave with a strong ETag over the snapshot's versions of
        exactly the tables they read.  ``/api`` paths get JSON error
        bodies (and ``401`` rather than a login redirect) for machine
        clients.
        """
        is_api = request.path == "/api" or request.path.startswith("/api/")
        token = request.cookies.get(_SESSION_COOKIE, "")
        if request.path not in _PUBLIC_PATHS:
            try:
                request.session = self.system.auth.resolve(token)
            except AuthenticationError:
                if is_api:
                    return Response.json(
                        {"error": "authentication required"}, status=401
                    )
                return Response.redirect("/login")
        if match is None:
            match = self.router.resolve(request.method, request.path)
        try:
            if request.method == "GET":
                cache_ctx = self.cache.begin(match.pattern, request)
                if cache_ctx is not None:
                    not_modified = cache_ctx.not_modified()
                    if not_modified is not None:
                        return not_modified
                if self.replicas is not None:
                    request.snapshot = self.replicas.read_snapshot(
                        min_seq=self._seen_seq(request)
                    )
                else:
                    request.snapshot = self.system.db.snapshot()
                sink = None if cache_ctx is None else cache_ctx.sink
                with track_reads(sink, snapshot=request.snapshot):
                    response = self.router.dispatch(request, match)
                if cache_ctx is not None:
                    cache_ctx.finish(response)
            else:
                # One transaction per write request: everything the
                # handler writes commits once, before the response
                # leaves, or rolls back with the exception that maps to
                # the error response.
                with self.system.db.transaction(defer_lock=True):
                    response = self.router.dispatch(request, match)
            if (
                request.method in ("POST", "PUT")
                and response.status < 400
                and self.replicas is not None
            ):
                response.set_cookie(
                    _SEEN_SEQ_COOKIE, str(self.system.db.committed_seq)
                )
            return response
        except AccessDenied as exc:
            if is_api:
                return Response.json({"error": str(exc)}, status=403)
            return Response.forbidden(esc(str(exc)))
        except EntityNotFound as exc:
            if is_api:
                return Response.json({"error": str(exc)}, status=404)
            return Response.not_found(esc(str(exc)))
        except ValidationError as exc:
            if is_api:
                return Response.json(
                    {"error": str(exc), "fields": dict(exc.field_errors)},
                    status=400,
                )
            details = "".join(
                f"<li><b>{esc(field)}</b>: {esc(problem)}</li>"
                for field, problem in exc.field_errors.items()
            )
            return Response(
                page("Validation failed", f"<p>{esc(exc)}</p><ul>{details}</ul>"),
                status=400,
            )
        except BFabricError as exc:
            self.system.errors.report("portal", str(exc), {"path": request.path})
            if is_api:
                return Response.json({"error": str(exc)}, status=500)
            return Response(
                page("Error", f"<p>{esc(exc)}</p>"), status=500
            )
        except Exception as exc:  # worker threads must survive any view
            self.system.errors.report(
                "portal", f"{type(exc).__name__}: {exc}", {"path": request.path}
            )
            if is_api:
                return Response.json({"error": "internal error"}, status=500)
            return Response(
                page("Error", "<p>internal error</p>"), status=500
            )
        finally:
            if request.snapshot is not None:
                request.snapshot.close()
                request.snapshot = None

    @staticmethod
    def _seen_seq(request: Request) -> "int | None":
        """The read-your-writes floor from the session cookie, if sane."""
        raw = request.cookies.get(_SEEN_SEQ_COOKIE, "")
        try:
            return int(raw) if raw else None
        except ValueError:
            return None

    # -- session helpers ---------------------------------------------------------------

    def principal(self, request: Request):
        return request.session.principal

    def history_for(self, request: Request) -> SearchHistory:
        token = request.session.token
        if token not in self._histories:
            self._histories[token] = SearchHistory()
        return self._histories[token]

    # -- view registration ----------------------------------------------------------------

    def _register_views(self) -> None:
        from repro.portal.views import (
            admin as admin_views,
            annotations as annotation_views,
            api as api_views,
            auth as auth_views,
            experiments as experiment_views,
            home as home_views,
            imports as import_views,
            projects as project_views,
            search as search_views,
        )

        auth_views.register(self.router, self)
        home_views.register(self.router, self)
        project_views.register(self.router, self)
        annotation_views.register(self.router, self)
        import_views.register(self.router, self)
        experiment_views.register(self.router, self)
        search_views.register(self.router, self)
        admin_views.register(self.router, self)
        api_views.register(self.router, self)

    # -- for auth views ----------------------------------------------------------------------

    @staticmethod
    def session_cookie_name() -> str:
        return _SESSION_COOKIE
