"""Administrative screens: dashboard, audit trail, errors, workflows."""

from __future__ import annotations

import json

from repro.portal.http import Request, Response
from repro.portal.render import Html, definition_list, page, table


def _fmt(value) -> str:
    """Six-decimal seconds, or a dash for empty histograms."""
    return f"{value:.6f}" if value is not None else "—"


def _replication_rows(registry) -> list[tuple]:
    """Every ``replication_*`` sample: lag gauges, frame/read counters."""
    rows = []
    for family in registry.families():
        if not family.name.startswith("replication_"):
            continue
        for labels, child in family.samples():
            value = getattr(child, "value", None)
            if value is None:
                continue
            detail = ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
            rows.append((family.name, detail, int(value)))
    return sorted(rows)


def _http_rows(registry) -> list[tuple]:
    family = registry.get("http_requests_total")
    if family is None:
        return []
    rows = [
        (labels["route"], labels["method"], labels["status"],
         int(child.value))
        for labels, child in family.samples()
    ]
    return sorted(rows)


def register(router, portal) -> None:
    system = portal.system

    @router.get("/admin")
    def dashboard(request: Request) -> Response:
        principal = portal.principal(request)
        stats = system.maintenance.dashboard(principal)
        deployment = system.deployment_statistics()
        body = "<h2>Deployment (paper Final-Remark table)</h2>"
        body += table(["object", "count"], sorted(deployment.items()))
        body += "<h2>Storage</h2>" + definition_list(
            sorted(
                (k, v)
                for k, v in stats["storage"].items()
                if not isinstance(v, dict)
            )
        )
        if "search" in stats:
            body += "<h2>Search index</h2>" + definition_list(
                sorted(stats["search"].items())
            )
        if "workflows" in stats:
            body += "<h2>Workflows</h2>" + definition_list(
                [("active instances", stats["workflows"]["active"]),
                 ("definitions",
                  ", ".join(stats["workflows"]["definitions"]))]
            )
        body += (
            '<p><a href="/admin/audit">audit trail</a> | '
            '<a href="/admin/errors">errors</a> | '
            '<a href="/admin/workflows">workflow instances</a> | '
            '<a href="/admin/reports">usage reports</a> | '
            '<a href="/admin/metrics">metrics</a></p>'
        )
        return Response(page("Administration", body, user=principal.login))

    @router.get("/admin/metrics")
    def metrics_page(request: Request) -> Response:
        principal = portal.principal(request)
        registry = system.obs.metrics
        monitor = system.monitor

        body = "<h2>Latency (seconds)</h2>" + table(
            ["operation", "count", "mean", "p50", "p95", "p99", "max"],
            [
                (
                    name,
                    s["count"],
                    _fmt(s["mean"]), _fmt(s["p50"]),
                    _fmt(s["p95"]), _fmt(s["p99"]), _fmt(s["max"]),
                )
                for name, s in sorted(monitor.latency_summary().items())
            ],
        )
        body += "<h2>Requests by route</h2>" + table(
            ["route", "method", "status", "count"],
            _http_rows(registry),
        )
        body += "<h2>Committed operations</h2>" + table(
            ["table", "operation", "count"],
            [
                (tbl, op, count)
                for tbl, ops in sorted(monitor.operation_counts().items())
                for op, count in sorted(ops.items())
            ],
        )
        body += "<h2>Layer</h2>" + definition_list(
            sorted(system.obs.statistics().items())
        )
        body += "<h2>Resilience</h2>" + table(
            ["circuit breaker", "state"],
            [
                (endpoint, state)
                for endpoint, state in sorted(system.breakers.states().items())
            ],
        )
        resilience_counts = []
        for metric in ("resilience_retries_total", "resilience_gave_up_total"):
            family = registry.get(metric)
            if family is None:
                continue
            resilience_counts.extend(
                (metric, labels.get("site", ""), int(child.value))
                for labels, child in family.samples()
            )
        body += table(
            ["counter", "site", "count"], sorted(resilience_counts)
        )
        body += definition_list(
            [("dead letters pending", system.dlq.pending_count())]
        )
        queue = system.queue.status()
        states = queue["states"]
        body += "<h2>Job queue</h2>" + definition_list(
            [
                ("backlog depth", queue["depth"]),
                ("pending", states["pending"]),
                ("leased", states["leased"]),
                ("retry_wait", states["retry_wait"]),
                ("done", states["done"]),
                ("dead", states["dead"]),
                ("lease expirations", queue["lease_expirations"]),
                ("duplicates suppressed", queue["duplicates_suppressed"]),
                ("shed (backpressure)", queue["shed"]),
                ("active workers", queue["active_workers"]),
            ]
        )
        if queue["per_type"]:
            body += table(
                ["job type", "pending", "leased", "done", "retry_wait",
                 "dead"],
                [
                    (job_type, counts["pending"], counts["leased"],
                     counts["done"], counts["retry_wait"], counts["dead"])
                    for job_type, counts in sorted(queue["per_type"].items())
                ],
            )
        query_counts = []
        for metric in ("storage_query_plans_total", "storage_query_cache_total"):
            family = registry.get(metric)
            if family is not None:
                query_counts.extend(
                    (metric, labels.get("result", ""), int(child.value))
                    for labels, child in family.samples()
                )
        body += "<h2>Query planning and result cache</h2>" + table(
            ["counter", "result", "count"], sorted(query_counts)
        )
        mvcc = system.db.statistics()["mvcc"]
        body += "<h2>MVCC</h2>" + definition_list(
            [
                ("committed sequence", mvcc["committed_seq"]),
                ("open snapshots", mvcc["open_snapshots"]),
                ("version horizon", mvcc["version_horizon"]),
                ("retained versions", mvcc["retained_versions"]),
            ]
        )
        replication_rows = _replication_rows(registry)
        if replication_rows:
            body += "<h2>Replication</h2>" + table(
                ["metric", "labels", "value"], replication_rows
            )
        body += (
            '<p><a href="/admin/metrics.txt">raw exposition '
            "(Prometheus text format)</a> | "
            '<a href="/admin/metrics/history">windowed history</a> | '
            '<a href="/admin/slowlog">slow operations</a></p>'
        )
        return Response(page("Metrics", body, user=principal.login))

    @router.get("/admin/slowlog")
    def slowlog_page(request: Request) -> Response:
        principal = portal.principal(request)
        slowlog = system.obs.slowlog
        name = request.get("name") or None
        entries = slowlog.entries(name=name, limit=100)
        rows = []
        for entry in reversed(entries):  # newest first
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(entry["attributes"].items())
            )
            explain = entry.get("explain")
            rows.append(
                (
                    entry["ts"],
                    entry["name"],
                    _fmt(entry["duration"]),
                    _fmt(entry["threshold"]),
                    entry.get("status", ""),
                    entry.get("trace_id", ""),
                    detail,
                    json.dumps(explain, sort_keys=True, default=str)
                    if explain is not None
                    else "—",
                )
            )
        body = "<h2>Slow operations (newest first)</h2>" + table(
            ["at", "operation", "seconds", "budget", "status", "trace",
             "attributes", "explain"],
            rows,
        )
        body += "<h2>Budgets</h2>" + table(
            ["operation", "seconds"],
            [(op, _fmt(sec))
             for op, sec in sorted(slowlog.thresholds().items())],
        )
        body += definition_list([("total promotions", slowlog.promoted)])
        return Response(page("Slow Operations", body, user=principal.login))

    @router.get("/admin/metrics/history")
    def metrics_history_page(request: Request) -> Response:
        principal = portal.principal(request)
        history = system.obs.history
        window = request.get_int("window", 300) or 300
        history.capture()  # the page itself is a fresh sample point
        summary = history.window_summary(window=window)
        rows = []
        for key, info in sorted(summary["keys"].items()):
            if "rate" in info:
                rate = info["rate"]
                rows.append(
                    (key, "counter",
                     f"{rate:.3f}/s" if rate is not None else "—",
                     _fmt(info["last"])))
            else:
                rows.append(
                    (key, "gauge",
                     f"{_fmt(info['min'])} … {_fmt(info['max'])}",
                     _fmt(info["last"])))
        body = definition_list(
            [
                ("window (seconds)", window),
                ("samples in window", summary["samples"]),
                ("span (seconds)", _fmt(summary["span_seconds"])),
                ("samples retained", len(history)),
            ]
        )
        body += "<h2>Windowed series</h2>" + table(
            ["series", "kind", "rate / range", "last"], rows
        )
        body += (
            '<p>Change the window with <code>?window=SECONDS</code>; the '
            "same data feeds <code>repro stats --window</code>.</p>"
        )
        return Response(page("Metrics History", body, user=principal.login))

    @router.get("/admin/metrics.txt")
    def metrics_text(request: Request) -> Response:
        portal.principal(request)  # session required; content is operational
        return Response(
            system.obs.metrics.render_text(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    @router.get("/admin/reports")
    def usage_reports(request: Request) -> Response:
        principal = portal.principal(request)
        reports = system.reports
        body = "<h2>Busiest projects</h2>" + table(
            ["project", "workunits", "samples"],
            [
                (r["project"], r["workunits"], r["samples"])
                for r in reports.objects_per_project(principal)
            ],
        )
        body += "<h2>Storage by mode</h2>" + table(
            ["mode", "resources", "bytes"],
            [
                (mode, info["resources"], info["bytes"])
                for mode, info in sorted(
                    reports.storage_by_mode(principal).items()
                )
            ],
        )
        body += "<h2>Activity by user</h2>" + table(
            ["user", "operations"],
            [
                (r["user"], r["operations"])
                for r in reports.activity_by_user(principal)
            ],
        )
        body += "<h2>Application popularity</h2>" + table(
            ["application", "runs"],
            [
                (r["application"], r["runs"])
                for r in reports.application_popularity(principal)
            ],
        )
        body += "<h2>Vocabulary health</h2>" + table(
            ["status", "values"],
            sorted(reports.vocabulary_health(principal).items()),
        )
        body += '<p><a href="/admin/reports.csv">export project report CSV</a></p>'
        return Response(page("Usage Reports", body, user=principal.login))

    @router.get("/admin/reports.csv")
    def usage_reports_csv(request: Request) -> Response:
        principal = portal.principal(request)
        text = system.reports.export_csv(principal)
        return Response.download(
            text.encode("utf-8"), "usage_report.csv", "text/csv"
        )

    @router.get("/admin/audit")
    def audit_trail(request: Request) -> Response:
        principal = portal.principal(request)
        user_id = request.get_int("user_id")
        if user_id is not None:
            entries = system.audit.for_user(user_id)
        else:
            entries = system.audit.recent(limit=100)
        rows = [
            (e.at, e.user_login, e.action,
             f"{e.entity_type}:{e.entity_id}", e.summary)
            for e in entries
        ]
        body = table(["at", "user", "action", "object", "summary"], rows)
        return Response(page("Audit Trail", body, user=principal.login))

    @router.get("/admin/errors")
    def error_list(request: Request) -> Response:
        principal = portal.principal(request)
        rows = []
        for record in system.errors.open_errors():
            resolve = Html(
                f'<form method="post" action="/admin/errors/{record.id}/resolve">'
                "<button>resolve</button></form>"
            )
            rows.append((record.id, record.at, record.source,
                         record.message, resolve))
        body = table(["id", "at", "source", "message", "action"], rows)
        return Response(page("Errors", body, user=principal.login))

    @router.post("/admin/errors/<int:error_id>/resolve")
    def resolve_error(request: Request) -> Response:
        principal = portal.principal(request)
        system.errors.resolve(principal, request.params["error_id"])
        return Response.redirect("/admin/errors")

    @router.get("/admin/workflows")
    def workflow_list(request: Request) -> Response:
        principal = portal.principal(request)
        rows = [
            (i.id, i.definition, f"{i.entity_type}:{i.entity_id}",
             i.current_step, i.status)
            for i in system.workflow.active_instances()
        ]
        body = "<h2>Active instances</h2>" + table(
            ["id", "definition", "entity", "step", "status"], rows
        )
        return Response(page("Workflow Administration", body, user=principal.login))
