"""The traced run: a span recorder around the program, from outside.

Nothing under ``src/`` knows about this.  The recorder replaces public
callables of each layer — methods on the live service objects, a few
class methods, the render functions the view modules imported — with a
timing wrapper, replays the head of a workload's request stream through
an in-process ``PortalServer``, and restores everything.  A span is
``(name, start, end, parent, request)``; spans stay in memory and go to
the output file when the run ends.

Self time of a span is its duration minus the part its children cover,
so the rows of a *layer budget table* add up to the time the client
measured for the same requests.  What the budget cannot see is time
inside a layer that no wrapped call accounts for (spans inside the
program are ROADMAP item 5); that time stays with the caller's row.

The second half are the *layer probes*: fixed micro-measurements of
single layers on the same corpus, identical on every workload, which
name what an optimisation of that layer should move.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

import corpus
import loadgen
import streams
import workloads
from loadgen import Client, build_request

#: Requests replayed per traced run (``search_browse``: plus the
#: identifier searches and browses that follow its window).
TRACED_REQUESTS = {
    "page_read": 300,
    "search_browse": 300,
    "demo_flow": 300,
    "engine_mixed": 3000,
}

#: Root span of a socket request: everything outside the WSGI call —
#: the server's accept/parse/write and the load generator's own end of
#: the socket, which cannot be told apart from outside.
SERVER = "portal.server"
#: Root span of an in-process operation (``engine_mixed``): the driver.
DRIVER = "loadgen"

#: Rows of every budget table, in print order.
LAYERS = (
    "loadgen", "portal.server", "portal.app", "portal.caching", "portal.views",
    "portal.render", "security.auth", "security.acl", "core.services",
    "annotations.service", "tasks.service", "orm.repository", "storage.query",
    "storage.query.plan", "storage.database", "storage.transaction",
    "search.engine", "graphview.links", "workflow.engine", "dataimport.importer",
    "apps.experiments", "audit.log", "util.events",
)


class Recorder:
    """Spans in memory; parentage per thread, stitched by request id."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, request]
        self.enabled = False
        self.request = -1
        #: Index of the span the client holds open for ``request``; spans
        #: opened by server threads with no local parent hang below it.
        self.root = -1
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, function, name: str):
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            index = recorder.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(index)

        traced.__wrapped__ = function
        return traced

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (owner: instance, class or
        module); a missing attribute is skipped, so a later refactor
        loses a row of the table, not the run."""
        target = getattr(owner, attribute, None)
        if not callable(target):
            return
        own = vars(owner).get(attribute)
        if isinstance(owner, type):
            target = own if own is not None else target
        self._patched.append((owner, attribute, own))
        setattr(owner, attribute, self._wrapper(target, name))

    def wrap_public(self, instance, name: str) -> None:
        """Every public method of a service object."""
        for attribute in dir(type(instance)):
            if not attribute.startswith("_"):
                self.wrap(instance, attribute, name)

    def restore(self) -> None:
        for owner, attribute, own in reversed(self._patched):
            if own is not None:
                setattr(owner, attribute, own)
            else:
                delattr(owner, attribute)
        self._patched.clear()

    # -- accounting --------------------------------------------------------

    def self_times(self) -> dict[str, list]:
        """``name -> [calls, self seconds]`` over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = {}
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return totals


def instrument(recorder: Recorder, system, app) -> None:
    """Wrap the public entry points of every layer a request crosses."""
    from repro.orm import repository as orm_repository
    from repro.portal import caching as portal_caching
    from repro.portal import render as portal_render
    from repro.portal.app import PortalApplication
    from repro.storage import query as storage_query
    from repro.storage import transaction as storage_transaction

    wrap = recorder.wrap
    wrap(PortalApplication, "__call__", "portal.app")
    wrap(app.router, "dispatch", "portal.views")
    wrap(app.cache, "begin", "portal.caching")
    for method in ("not_modified", "capture", "finish"):
        wrap(portal_caching._CacheContext, method, "portal.caching")
    wrap(system.auth, "resolve", "security.auth")
    wrap(system.auth, "login", "security.auth")
    recorder.wrap_public(system.acl, "security.acl")
    for service in (system.projects, system.samples, system.workunits, system.directory):
        recorder.wrap_public(service, "core.services")
    recorder.wrap_public(system.annotations, "annotations.service")
    recorder.wrap_public(system.tasks, "tasks.service")
    recorder.wrap_public(system.workflow, "workflow.engine")
    recorder.wrap_public(system.imports, "dataimport.importer")
    recorder.wrap_public(system.experiments, "apps.experiments")
    recorder.wrap_public(system.applications, "apps.experiments")
    recorder.wrap_public(system.search, "search.engine")
    recorder.wrap_public(system.links, "graphview.links")
    wrap(system.audit, "record", "audit.log")
    wrap(system.events, "publish", "util.events")
    for cls in (orm_repository.Repository, orm_repository.ModelQuery):
        for method in ("get", "get_or_none", "find", "find_one", "all", "first", "one",
                       "count", "exists", "pks", "values", "create", "save", "update",
                       "delete"):
            if method in vars(cls):
                wrap(cls, method, "orm.repository")
    for method in ("all", "first", "one", "count", "exists", "pks", "values",
                   "distinct_values", "aggregate"):
        wrap(storage_query.Query, method, "storage.query")
    # Planning runs inside fingerprint(): on a cache hit it is the whole
    # difference between a dictionary lookup and what the caller pays.
    wrap(storage_query.Query, "fingerprint", "storage.query.plan")
    for method in ("get", "get_or_none", "insert", "update", "delete", "snapshot",
                   "version_vector", "rows", "count"):
        wrap(system.db, method, "storage.database")
    for method in ("commit", "rollback", "insert", "update", "delete"):
        wrap(storage_transaction.Transaction, method, "storage.transaction")
    # The views imported the render helpers by name: patch their copies.
    import sys as _sys

    for module_name, module in list(_sys.modules.items()):
        if not module_name.startswith("repro.portal"):
            continue
        for helper in ("page", "table", "form", "definition_list", "dropdown"):
            if getattr(module, helper, None) is getattr(portal_render, helper):
                if module is not portal_render:
                    wrap(module, helper, "portal.render")


# -- in-process deployment for a traced run ---------------------------------------------


class TracedDeployment:
    """Generate, checkpoint, reopen (as ``repro serve`` would), index,
    and serve from a thread of this process."""

    def __init__(self, seed: int, scale: float, root):
        self.dir = workloads.workdir(root)
        self.seed = seed
        self.scale = scale
        self.phases: dict[str, float] = {}

    def __enter__(self) -> "TracedDeployment":
        from repro.facade import BFabric
        from repro.portal import PortalApplication
        from repro.portal.server import PortalServer

        try:
            self.deployment = corpus.build_deployment(self.dir / "data", self.seed, self.scale)
            self.phases.update(self.deployment.phases)
            clock = time.perf_counter
            mark = clock()
            self.system = BFabric(self.dir / "data")
            self.system.recover()
            self.phases["recover_s"] = clock() - mark
            mark = clock()
            self.system.reindex_all()
            self.phases["reindex_s"] = clock() - mark
            corpus.register_demo_provider(self.system)
            self.app = PortalApplication(self.system)
            self.server = PortalServer(self.app, "127.0.0.1", 0, workers=4).start()
            logins = []
            for session in self.deployment.sessions + [self.deployment.demo]:
                mark = clock()
                token = self.system.auth.login(session.login, corpus.USER_PASSWORD).token
                logins.append(clock() - mark)
                session.cookie = f"{self.app.session_cookie_name()}={token}"
            self.phases["login_ms"] = statistics.median(logins) * 1e3
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
        system = getattr(self, "system", None)
        if system is not None:
            system.close()
        shutil.rmtree(self.dir, ignore_errors=True)


# -- replay ------------------------------------------------------------------------


def replay_socket(traced: TracedDeployment, name: str, recorder: Recorder) -> dict:
    """Replay the stream head over a socket to the in-process server,
    one request in flight at a time, three times: once to fill the
    caches (discarded), once with the recorder on, once with it off —
    so the two passes that are compared meet the same cache state."""
    count = TRACED_REQUESTS[name]
    deployment = traced.deployment
    poller = None
    if name == "demo_flow":
        flow, poller = workloads.demo_actors(deployment, traced.seed)
        blocks = [flow, poller] * (count // 22)   # 12 flow steps + 10 polls
    else:
        head = {"blocks": count // 10 + 2}
        if name == "page_read":
            plans = streams.page_read_streams(
                deployment.catalog, deployment.sessions, traced.seed,
                workloads.CONNECTIONS, **head)
        else:
            plans = streams.search_browse_streams(
                deployment.catalog, deployment.sessions, traced.seed, **head)
        steps = [step for block in plans[0] for step in block][:count]
        if name == "search_browse":
            steps += streams.slow_steps(
                deployment.catalog, deployment.sessions, traced.seed,
                workloads.IDENTIFIER_SEARCHES, workloads.BROWSES)
        blocks = [loadgen.static_block(streams.to_ops(steps, deployment.sessions))]
    client = Client(traced.server.port)
    passes = []
    try:
        for enabled in (False, True, False):
            recorder.enabled = enabled
            if poller is not None:
                poller.prime(client)
            before = len(client.records)
            started = time.perf_counter()
            for block in blocks:
                _traced_block(recorder, client, block)
            passes.append((time.perf_counter() - started, client.records[before:]))
    finally:
        recorder.enabled = False
        client.close()
    (on_s, on), (off_s, off) = passes[1], passes[2]
    sizes = [r[5] for _s, records in passes for r in records if r[4]]
    polls = sum(1 for _s, records in passes for r in records if r[3].startswith("poll"))
    return {
        "requests": len(on),
        "attempted": sum(len(records) for _s, records in passes),
        "failed": sum(1 for _s, records in passes for r in records if not r[4]),
        "untraced_s": off_s, "traced_s": on_s,
        "traced_request_s": sum(r[1] for r in on),
        "overhead_pct": 100.0 * (on_s / len(on) - off_s / len(off)) / (off_s / len(off)),
        "response_bytes_p50": statistics.median(sizes) if sizes else 0,
        "not_modified_share": poller.not_modified / max(1, polls) if poller else 0.0,
    }


def _traced_block(recorder: Recorder, client: Client, block) -> None:
    """Run a block with one root span around every request it makes."""
    if not recorder.enabled:
        block(client)
        return
    timed = client.timed

    def timed_with_root(op):
        recorder.request += 1
        with recorder.span(SERVER) as root:
            recorder.root = root
            try:
                return timed(op)
            finally:
                recorder.root = -1

    client.timed = timed_with_root
    try:
        block(client)
    finally:
        del client.timed


def replay_engine(traced: TracedDeployment, recorder: Recorder) -> dict:
    """``engine_mixed``'s stream head against the in-process database."""
    count = TRACED_REQUESTS["engine_mixed"]
    per_block = sum(n for _kind, n in workloads.ENGINE_MIX)
    passes = []
    for enabled in (False, True, False):   # fill caches, recorder on, recorder off
        recorder.enabled = enabled
        started = time.perf_counter()
        result = workloads._drive_engine(
            traced.system, traced.deployment.catalog, traced.seed, 0.0, 0.0,
            count // per_block,
            around=(lambda: recorder.span(DRIVER)) if enabled else None,
        )
        passes.append((time.perf_counter() - started, result))
    recorder.enabled = False
    (on_s, on), (off_s, off) = passes[1], passes[2]
    return {
        "requests": on["attempted"],
        "failed": sum(result["failed"] for _s, result in passes),
        "attempted": sum(result["attempted"] for _s, result in passes),
        "untraced_s": off_s, "traced_s": on_s,
        "traced_request_s": sum(r[1] for r in on["records"]),
        "overhead_pct": 100.0 * (on_s - off_s) / off_s,
        "response_bytes_p50": 0, "not_modified_share": 0.0,
    }


def budget_table(recorder: Recorder, replay: dict) -> dict:
    """Self time per layer over the traced pass, next to the time the
    client itself measured for the same requests."""
    rows = recorder.self_times()
    explained = sum(entry[1] for entry in rows.values())
    measured = replay["traced_request_s"]
    requests = max(1, replay["requests"])
    ordered = [n for n in LAYERS if n in rows] + sorted(n for n in rows if n not in LAYERS)
    return {
        "rows": {
            name: {
                "calls": rows[name][0],
                "self_ms": rows[name][1] * 1e3,
                "self_us_per_request": rows[name][1] * 1e6 / requests,
                "share": rows[name][1] / explained if explained else 0.0,
            }
            for name in ordered
        },
        "measured_ms": measured * 1e3,
        "explained_ms": explained * 1e3,
    }


# -- layer probes -------------------------------------------------------------------------


def _median_us(function, *, repeat: int = 7, number: int = 200) -> float:
    """Median over *repeat* batches of the mean time of *number* calls."""
    clock = time.perf_counter
    batches = []
    for _ in range(repeat):
        started = clock()
        for _ in range(number):
            function()
        batches.append((clock() - started) / number)
    return statistics.median(batches) * 1e6


def fsync_4k_us(directory: Path) -> float:
    """How cheap this sandbox's fsync is: 4 KiB write + fsync."""
    path = directory / "fsync-probe"
    samples = []
    with open(path, "wb") as handle:
        for _ in range(50):
            started = time.perf_counter()
            handle.write(b"\0" * 4096)
            handle.flush()
            os.fsync(handle.fileno())
            samples.append(time.perf_counter() - started)
    path.unlink()
    return statistics.median(samples) * 1e6


def _wsgi_get(app, path: str, cookie: str, headers: dict | None = None):
    """One bare WSGI call; returns (status, headers, body)."""
    import io

    environ = {
        "REQUEST_METHOD": "GET", "PATH_INFO": path, "QUERY_STRING": "",
        "SERVER_NAME": "bench", "SERVER_PORT": "0", "SERVER_PROTOCOL": "HTTP/1.1",
        "wsgi.input": io.BytesIO(b""), "wsgi.errors": io.StringIO(),
        "wsgi.url_scheme": "http", "HTTP_COOKIE": cookie,
    }
    for key, value in (headers or {}).items():
        environ["HTTP_" + key.upper().replace("-", "_")] = value
    captured = {}

    def start_response(status, response_headers, exc_info=None):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(response_headers)

    body = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], body


def probes(traced: TracedDeployment) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)``; the same procedure on every workload."""
    from repro.portal import render
    from repro.security.acl import Permission
    from repro.storage.database import Database
    from repro.storage.schema import Column, TableSchema
    from repro.storage.types import ColumnType

    system, app, deployment = traced.system, traced.app, traced.deployment
    catalog, db = deployment.catalog, system.db
    out: dict[str, tuple[float, str]] = {}
    employee = deployment.sessions[0]
    leader = deployment.demo
    principal = system.auth.resolve(leader.cookie.split("=", 1)[1]).principal
    expert = system.auth.resolve(employee.cookie.split("=", 1)[1]).principal
    project_id = leader.project_ids[0]
    workunit_ids = [w for w, _n in catalog.workunits[project_id]]
    sample_ids = [s for s, _n in catalog.samples.get(project_id, [])] or [
        s for ss in catalog.samples.values() for s, _n in ss
    ]
    cycle = iter(range(10**9))

    # storage ---------------------------------------------------------------
    wid = lambda: workunit_ids[next(cycle) % len(workunit_ids)]
    out["storage.pk_get_us"] = (_median_us(lambda: db.get("workunit", wid())), "us")
    out["storage.pk_query_us"] = (
        _median_us(lambda: db.query("workunit").where("id", "=", wid()).all()), "us")
    all_projects = [pid for pid, _n, _o in catalog.projects]
    pid = lambda: all_projects[(next(cycle) * 7) % len(all_projects)]
    out["storage.indexed_eq_us"] = (
        _median_us(lambda: db.query("sample").where("project_id", "=", pid()).all()), "us")
    names = [n for _w, n in catalog.workunits[project_id]]
    name = lambda: names[next(cycle) % len(names)]
    out["storage.range_limit_us"] = (_median_us(
        lambda: db.query("workunit").where("name", ">=", name()).order_by("name").limit(10).all()
    ), "us")
    hot = db.query("project").where("id", "=", project_id)
    hot.all()
    out["storage.cache_hit_us"] = (
        _median_us(lambda: db.query("project").where("id", "=", project_id).all()), "us")
    plan = db.query("sample").where("project_id", "=", project_id).explain(analyze=True)
    out["storage.rows_examined_per_result"] = (
        plan.get("candidates", 0) / max(1, plan.get("actual_rows", 0)), "ratio")
    def open_close():
        db.snapshot().close()
    out["storage.snapshot_open_us"] = (_median_us(open_close), "us")

    schema = TableSchema("t", [Column("id", ColumnType.INT, primary_key=True),
                               Column("payload", ColumnType.TEXT)])

    def fsyncs(database) -> int:
        family = database.obs.metrics.get("storage_wal_fsync_seconds")
        return sum(child.count for _l, child in family.samples()) if family else 0

    for mode in ("buffered", "always"):
        with tempfile.TemporaryDirectory(dir=traced.dir) as tmp:
            small = Database(Path(tmp), durability=mode)
            small.create_table(schema)
            counter = iter(range(1, 10**9))

            def commit():
                with small.transaction() as txn:
                    txn.insert("t", {"id": next(counter), "payload": "x" * 64})

            commit()
            size, synced, first = small.statistics()["wal_bytes"], fsyncs(small), next(counter)
            out[f"storage.commit_{mode}_us"] = (_median_us(commit, repeat=5, number=100), "us")
            commits = next(counter) - first - 1
            if mode == "always":
                out["storage.wal_bytes_per_commit"] = (
                    (small.statistics()["wal_bytes"] - size) / commits, "B")
                out["storage.fsyncs_per_commit"] = ((fsyncs(small) - synced) / commits, "ratio")
            small.close()

    # orm, services, security ---------------------------------------------------
    workunits = system.registry.repository_for("workunit")
    out["orm.get_us"] = (_median_us(lambda: workunits.get(wid())), "us")
    rows = len(workunit_ids)
    out["orm.find_us_per_row"] = (
        _median_us(lambda: workunits.find(project_id=project_id), repeat=5, number=5) / rows, "us")
    def project_detail():
        project = system.projects.get(principal, project_id)
        system.samples.samples_of_project(principal, project.id)
        system.workunits.of_project(principal, project.id)
    out["core.services.project_detail_us"] = (_median_us(project_detail, repeat=5, number=5), "us")
    token = leader.cookie.split("=", 1)[1]
    out["security.session_resolve_us"] = (_median_us(lambda: system.auth.resolve(token)), "us")
    out["security.acl_check_us"] = (
        _median_us(lambda: system.acl.can(principal, Permission.READ, project_id)), "us")
    out["security.login_ms"] = (traced.phases["login_ms"], "ms")

    # portal ------------------------------------------------------------------------
    cells = [(i, render.link(f"/workunits/{i}", f"workunit {i}"), "available")
             for i in range(1000)]
    out["portal.render.us_per_row"] = (
        _median_us(lambda: render.table(["id", "workunit", "status"], cells),
                   repeat=5, number=5) / 1000, "us")
    out["portal.app.dispatch_us"] = (_median_us(lambda: _wsgi_get(app, "/ping", "")), "us")
    client = Client(traced.server.port)
    ping = build_request("GET", "/ping")
    round_trip = _median_us(lambda: client.exchange(ping))
    client.close()
    out["portal.server.self_us"] = (round_trip - out["portal.app.dispatch_us"][0], "us")
    # A leader, not an employee: an expert's render of /projects reads
    # fewer tables than the route's learned coverage once any leader
    # has been there, and its validators then never match again.
    _status, headers, _body = _wsgi_get(app, "/projects", leader.cookie)
    etag = headers.get("ETag", "")
    revisit = lambda: _wsgi_get(app, "/projects", leader.cookie, {"If-None-Match": etag})
    if revisit()[0] != 304:
        raise RuntimeError("validator of an unchanged page did not yield 304")
    out["portal.caching.not_modified_us"] = (_median_us(revisit), "us")
    shed = system.obs.metrics.get("http_server_shed_total")
    out["portal.shed_count"] = (
        sum(child.value for _l, child in shed.samples()) if shed else 0.0, "count")

    # search, graphview ----------------------------------------------------------------
    queries = {
        "term": "liver", "multi": "musculus brain", "typed": "type:sample root",
        "field": "name:leaf", "or": "light OR dark",
        "identifier": catalog.resources[len(catalog.resources) // 2][1].rsplit(".", 1)[0],
    }
    for kind, text in queries.items():
        out[f"search.query_ms.{kind}"] = (
            _median_us(lambda: system.search.search(expert, text), repeat=5, number=3) / 1e3, "ms")
    doc = iter(range(10**8, 10**9))
    def index_one():
        system.search.index_document(
            "sample", next(doc),
            {"name": "probe sample leaf", "species": "Mus musculus", "description": ""},
            project_id=project_id)
    out["search.index_doc_us"] = (_median_us(index_one, repeat=5, number=40), "us")
    for i in range(10**8, 10**8 + 200):
        system.search.remove_document("sample", i)
    from repro.graphview.links import ObjectRef
    started = time.perf_counter()
    system.links.rebuild()
    out["graphview.rebuild_ms"] = ((time.perf_counter() - started) * 1e3, "ms")
    ref = ObjectRef("project", project_id)
    out["graphview.neighbors_us"] = (
        _median_us(lambda: system.links.neighbors(ref), repeat=5, number=5), "us")

    # write-side layers (last: they commit) -------------------------------------------
    out["audit.record_us"] = (_median_us(
        lambda: system.audit.record(principal, "update", "sample", sample_ids[0], "probe"),
        repeat=5, number=40), "us")
    from repro.dataimport.importer import IMPORT_WORKFLOW
    def transition():
        instance = system.workflow.start(principal, IMPORT_WORKFLOW, entity_type="workunit",
                                         entity_id=workunit_ids[0])
        started = time.perf_counter()
        system.workflow.fire(principal, instance.id, "save")
        return time.perf_counter() - started
    out["workflow.transition_us"] = (statistics.median(transition() for _ in range(30)) * 1e6, "us")
    system.queue.register_handler("bench.probe", lambda job: None)
    def enqueue():
        started = time.perf_counter()
        job = system.queue.enqueue("bench.probe", {"n": 1})
        return time.perf_counter() - started, job
    def claim_ack():
        started = time.perf_counter()
        for job in system.queue.claim("bench-probe", job_types={"bench.probe"}):
            system.queue.ack(job.id, "bench-probe")
        return time.perf_counter() - started
    timings = [(enqueue()[0], claim_ack()) for _ in range(30)]
    out["tasks.enqueue_us"] = (statistics.median(t[0] for t in timings) * 1e6, "us")
    out["tasks.claim_ack_us"] = (statistics.median(t[1] for t in timings) * 1e6, "us")
    imports, runs = [], []
    for n in range(5):
        started = time.perf_counter()
        workunit, resources, _instance = system.imports.import_files(
            principal, project_id, corpus.DEMO_PROVIDER,
            [f"scan{n + 1:02d}_a.cel", f"scan{n + 1:02d}_b.cel"],
            workunit_name=f"probe import {n}")
        imports.append(time.perf_counter() - started)
        system.imports.apply_assignments(principal, workunit.id, {})
        experiment = system.experiments.define(
            principal, project_id, f"probe analysis {n}",
            application_id=catalog.application_id,
            resource_ids=[r.id for r in resources])
        started = time.perf_counter()
        system.experiments.run(principal, experiment.id, workunit_name=f"probe results {n}",
                               parameters={"reference_group": "_a"})
        runs.append(time.perf_counter() - started)
    out["dataimport.import_run_ms"] = (statistics.median(imports) * 1e3, "ms")
    out["apps.experiment_run_ms"] = (statistics.median(runs) * 1e3, "ms")

    # set-up phases and trust ------------------------------------------------------------
    out["workload.generate_s"] = (traced.phases["generate_s"], "s")
    out["storage.recover_s"] = (traced.phases["recover_s"], "s")
    out["search.reindex_s"] = (traced.phases["reindex_s"], "s")
    out["env.fsync_4k_us"] = (fsync_4k_us(traced.dir), "us")
    out["env.loadavg"] = (os.getloadavg()[0], "load")
    return out


def _outcomes(system, family_name: str) -> dict[str, float]:
    """A labelled counter of the operator's registry, by ``result``."""
    family = system.obs.metrics.get(family_name)
    if family is None:
        return {}
    return {labels["result"]: child.value for labels, child in family.samples()}


def run_traced(name: str, seed: int, *, scale: float = 1.0, root=None) -> dict:
    """One traced run: budget table of *name*'s stream plus the probes."""
    recorder = Recorder()
    with TracedDeployment(seed, scale, root) as traced:
        instrument(recorder, traced.system, traced.app)
        try:
            cache_before = traced.system.db.query_cache.statistics()
            search_before = _outcomes(traced.system, "search_cache_total")
            if name == "engine_mixed":
                replay = replay_engine(traced, recorder)
            else:
                replay = replay_socket(traced, name, recorder)
            cache_after = traced.system.db.query_cache.statistics()
            search_after = _outcomes(traced.system, "search_cache_total")
        finally:
            recorder.restore()
        budget = budget_table(recorder, replay)
        measured = probes(traced)
    measured["trace.overhead_pct"] = (replay["overhead_pct"], "%")
    measured["portal.response_bytes_p50"] = (float(replay["response_bytes_p50"]), "B")
    measured["portal.caching.not_modified_share"] = (replay["not_modified_share"], "ratio")
    # The query cache over both passes of this workload's stream head.
    lookups = {
        k: cache_after["lookups"].get(k, 0) - cache_before["lookups"].get(k, 0)
        for k in ("hit", "miss")
    }
    measured["storage.cache_hit_rate"] = (
        lookups["hit"] / max(1, lookups["hit"] + lookups["miss"]), "ratio")
    found = {k: search_after.get(k, 0) - search_before.get(k, 0) for k in ("hit", "miss")}
    measured["search.candidate_cache_hit_rate"] = (
        found["hit"] / max(1, found["hit"] + found["miss"]), "ratio")
    measured["storage.cache_evictions"] = (
        float(cache_after["evictions"] - cache_before["evictions"]), "count")
    for layer in LAYERS:
        row = budget["rows"].get(layer)
        measured[f"budget.{layer}.share"] = (row["share"] if row else 0.0, "ratio")
    return {
        "workload": name, "seed": seed,
        "attempted": replay["attempted"], "failed": replay["failed"],
        "layer_metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(measured.items())},
        "budget": budget,
        "replay": replay,
        "phases": traced.phases,
        "spans": len(recorder.spans),
        "_spans": recorder.spans,
    }
