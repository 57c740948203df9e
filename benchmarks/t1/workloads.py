"""The four workloads, run end to end.

Three drive ``repro serve`` in its own process over keep-alive sockets
(``page_read``, ``search_browse``, ``demo_flow``); ``engine_mixed``
drives a ``Database`` in the benchmark process.  Each returns one
result dict: the end-to-end metrics with unit, sample count and slice
spread, per-route medians, set-up phases, operator counters read before
and after the window, and the outcome of the correctness checks.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import re
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from urllib.parse import urlencode

import corpus
import loadgen
import streams
from loadgen import READ, WRITE, Client, ConnectionRun, Op, build_request

CONNECTIONS = min(2, os.cpu_count() or 1)

#: Discarded lead-in of every window, seconds.
WARMUP_S = 2.0

#: Slices a measured window is cut into; their IQR is the reported spread.
SLICES = 4

#: The open-loop phase after ``page_read``'s window: arrival rate and
#: length (300 requests: fifteen beyond the p95 reported for it).
PACED_RPS = 100.0
PACED_S = 3.0

#: Requested one at a time after ``search_browse``'s window.
IDENTIFIER_SEARCHES = 16
BROWSES = 2

#: Pause between two polls of the demo flow's second user.
POLL_THINK_S = 0.004

#: One in this many 304s is re-fetched unconditionally (no false 304).
RECHECK_EVERY = 100


def contract() -> dict:
    return json.loads((corpus.ROOT / "BENCHMARK.json").read_text())


def tail_percentile(name: str) -> int:
    """The tail percentile of a workload's latencies, fixed where the
    workload is: the ``Tail pNN`` of its ``why`` in ``BENCHMARK.json``."""
    why = next(w["why"] for w in contract()["workloads"] if w["name"] == name)
    return int(re.search(r"Tail p(\d+)", why).group(1))


def workdir(root: "Path | None") -> Path:
    """A fresh scratch directory (inside the checkout by default)."""
    base = root if root is not None else corpus.ROOT / ".bench_work"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


# -- statistics over connection runs -------------------------------------------


def _metric(value, unit, n, spread=None) -> dict:
    return {"value": value, "unit": unit, "n": n, "spread": spread}


def _blocks_of(run: ConnectionRun) -> list[tuple]:
    """``[(duration, records), ...]`` per measured block of a connection."""
    ends = [end for _start, end in run.blocks]
    per_block: list[list] = [[] for _ in run.blocks]
    for record in run.records:
        index = min(bisect.bisect_left(ends, record[0]), len(ends) - 1)
        per_block[index].append(record)
    return [
        (end - start, records)
        for (start, end), records in zip(run.blocks, per_block)
    ]


def summarize(
    runs: list[ConnectionRun],
    tail: int,
    *,
    throughput_runs: "list[ConnectionRun] | None" = None,
) -> dict:
    """End-to-end numbers of one window.

    Throughput sums, per connection, correct operations over that
    connection's own measured interval (connections end on their own
    block boundary).  *throughput_runs* narrows which connections count
    as the workload's operations.
    """
    counted = throughput_runs if throughput_runs is not None else runs
    blocks = {id(run): _blocks_of(run) for run in runs}
    slices = min([SLICES] + [len(run.blocks) for run in runs])

    def part(run, i) -> tuple[float, list]:
        """Slice *i* of a connection: consecutive blocks, pooled."""
        mine = blocks[id(run)]
        chosen = mine[i * len(mine) // slices:(i + 1) * len(mine) // slices]
        return sum(d for d, _r in chosen), [r for _d, rs in chosen for r in rs]

    def rate(duration: float, records: list) -> float:
        return sum(1 for r in records if r[4]) / duration

    def over_slices(function) -> "float | None":
        values = [function(i) for i in range(slices)] if slices >= 2 else []
        return loadgen.relative_iqr([v for v in values if v is not None])

    def slice_latency(kind, pct):
        def value(i):
            sample = sorted(
                r[1] for run in runs for r in part(run, i)[1] if r[2] == kind and r[4]
            )
            return loadgen.percentile(sample, pct) * 1e3 if sample else None
        return value

    records = [r for run in runs for r in run.records]
    metrics = {
        "throughput_rps": _metric(
            sum(rate(run.elapsed, run.records) for run in counted),
            "op/s",
            sum(1 for run in counted for r in run.records if r[4]),
            over_slices(lambda i: sum(rate(*part(run, i)) for run in counted)),
        ),
    }
    for kind, prefix in ((READ, "latency"), (WRITE, "write")):
        sample = sorted(r[1] for r in records if r[2] == kind and r[4])
        if not sample:
            continue
        metrics[f"{prefix}_p50_ms"] = _metric(
            statistics.median(sample) * 1e3, "ms", len(sample),
            over_slices(slice_latency(kind, 50)),
        )
        metrics[f"{prefix}_tail_ms"] = _metric(
            loadgen.percentile(sample, tail) * 1e3, "ms", len(sample),
            over_slices(slice_latency(kind, tail)),
        )
        metrics[f"{prefix}_tail_ms"]["percentile"] = tail
    failed = sum(1 for r in records if not r[4])
    metrics["error_rate"] = _metric(failed / max(1, len(records)), "ratio", len(records))
    routes: dict[str, dict] = {}
    for label in sorted({r[3] for r in records}):
        mine = [r for r in records if r[3] == label]
        good = [r for r in mine if r[4]]
        routes[label] = {
            "n": len(mine),
            "failed": len(mine) - len(good),
            "p50_ms": statistics.median(r[1] for r in good) * 1e3 if good else None,
            "bytes_p50": statistics.median(r[5] for r in good) if good else None,
        }
    return {
        "attempted": len(records),
        "failed": failed,
        "failures": [failure for run in runs for failure in run.failures],
        "metrics": metrics,
        "routes": routes,
        "window_s": max(run.elapsed for run in runs),
        "loadgen_cpu_share": sum(run.cpu_s for run in runs)
        / max(1e-9, sum(run.elapsed for run in runs)),
    }


# -- portal set-up shared by the socket workloads ---------------------------------

_COUNTERS = re.compile(
    r"^bfabric_(http_requests_total|http_server_shed_total|storage_commits_total|"
    r"storage_query_cache_total|storage_query_cache_evictions_total|"
    r"storage_wal_fsync_seconds_count|search_queries_total|search_cache_total)"
    r"(\{[^}]*\})? (\S+)$",
    re.M,
)


def read_counters(client: Client, cookie: str) -> dict[str, float]:
    """The operator's instrument: ``GET /admin/metrics.txt``, summed per
    family (labels folded except cache outcome)."""
    reply = client.get("/admin/metrics.txt", cookie=cookie)
    totals: dict[str, float] = {}
    for name, labels, value in _COUNTERS.findall(reply.body.decode("utf-8")):
        outcome = re.search(r'result="(\w+)"', labels or "")
        key = f"{name}[{outcome.group(1)}]" if outcome else name
        totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def login(client: Client, login_name: str, password: str) -> str:
    reply = client.post(
        "/login", urlencode({"login": login_name, "password": password})
    )
    cookie = reply.header("set-cookie").split(";")[0]
    if reply.status != 303 or not cookie:
        raise RuntimeError(f"login of {login_name} failed: {reply.status}")
    return cookie


class Portal:
    """Set-up and tear-down of one socket workload's run."""

    def __init__(self, seed: int, scale: float, root: "Path | None", *, demo=False):
        self.seed = seed
        self.scale = scale
        self.demo = demo
        self.dir = workdir(root)
        self.server: "corpus.ServerProcess | None" = None
        self.deployment: "corpus.Deployment | None" = None
        self.setup_s = 0.0
        self.phases: dict[str, float] = {}

    def __enter__(self) -> "Portal":
        try:
            self._set_up()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _set_up(self) -> None:
        started = time.perf_counter()
        self.deployment = corpus.build_deployment(
            self.dir / "data", self.seed, self.scale
        )
        self.phases.update(self.deployment.phases)
        self.server = corpus.ServerProcess(self.dir / "data", demo_provider=self.demo)
        self.phases["restart_s"] = self.server.start()
        mark = time.perf_counter()
        client = Client(self.server.port)
        try:
            for session in self.deployment.sessions + [self.deployment.demo]:
                session.cookie = login(client, session.login, corpus.USER_PASSWORD)
        finally:
            client.close()
        self.phases["logins_s"] = time.perf_counter() - mark
        self.setup_s = time.perf_counter() - started

    def __exit__(self, *exc) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    def finish(self, result: dict, before: dict, after: dict) -> dict:
        """Add what every socket workload reports besides its latencies."""
        metrics = result["metrics"]
        metrics["setup_s"] = _metric(self.setup_s, "s", 1)
        metrics["rss_mb"] = _metric(self.server.peak_rss_mb(), "MB", 1)
        metrics["disk_mb"] = _metric(corpus.directory_mb(self.dir / "data"), "MB", 1)
        result["phases"] = self.phases
        result["counters"] = {
            key: after[key] - before.get(key, 0.0) for key in sorted(after)
        }
        return result


def _run_static(portal: Portal, plans, name: str, seconds: float, warmup: float,
                then) -> dict:
    """Closed loops over prepared streams (one connection per stream in
    *plans*), counters read around them; *then* runs a further phase
    against the same server before memory and disk are read."""
    deployment = portal.deployment
    blocks = [
        [loadgen.static_block(streams.to_ops(block, deployment.sessions))
         for block in plan]
        for plan in plans
    ]
    probe = Client(portal.server.port)
    cookie = deployment.sessions[0].cookie
    try:
        before = read_counters(probe, cookie)
        runs = loadgen.run_closed_loops(
            portal.server.port, blocks, warmup=warmup, seconds=seconds
        )
        after = read_counters(probe, cookie)
    finally:
        probe.close()
    result = summarize(runs, tail_percentile(name))
    then(portal, plans, result)
    return portal.finish(result, before, after)


def _paced_phase(portal: Portal, plans, result: dict) -> None:
    """Open loop after the closed one: admission control, queue depth
    and shedding only show when arrivals do not wait for replies."""
    ops = streams.to_ops(
        [step for block in plans[0][-50:] for step in block],
        portal.deployment.sessions,
    )
    probe = Client(portal.server.port)
    cookie = portal.deployment.sessions[0].cookie
    shed = "http_server_shed_total"
    try:
        before = read_counters(probe, cookie).get(shed, 0.0)
        paced = loadgen.run_paced(
            portal.server.port, ops, rate=PACED_RPS, seconds=PACED_S,
            connections=CONNECTIONS,
        )
        paced["shed"] = read_counters(probe, cookie).get(shed, 0.0) - before
    finally:
        probe.close()
    latencies = paced.pop("latencies")
    if latencies:
        tail = tail_percentile("page_read")
        entry = _metric(loadgen.percentile(latencies, tail) * 1e3, "ms", len(latencies))
        entry["percentile"] = tail
        result["metrics"]["paced_tail_ms"] = entry
    result["failures"] += paced.pop("failures")
    result["paced"] = paced
    result["attempted"] += paced["attempted"]
    result["failed"] += paced["failed"]


def run_page_read(seed, seconds, *, scale=1.0, warmup=WARMUP_S, root=None) -> dict:
    with Portal(seed, scale, root) as portal:
        deployment = portal.deployment
        plans = streams.page_read_streams(
            deployment.catalog, deployment.sessions, seed, CONNECTIONS)
        return _run_static(portal, plans, "page_read", seconds, warmup, _paced_phase)


def _slow_phase(portal: Portal, _plans, result: dict) -> None:
    """After the search window: identifier-like searches and link-graph
    pages, one at a time.

    Apart from the window because each browse rebuilds the whole graph
    (seconds of allocation, one to three full collections) and each
    identifier search builds a 40 000-candidate set whose cost halves
    and doubles from one server process to the next: inside the window
    a handful of them decided its throughput and tail, by a different
    amount every run.  Checked and reported (``identifier_p50_ms``,
    ``browse_p50_ms``), not gated.
    """
    deployment = portal.deployment
    steps = streams.slow_steps(
        deployment.catalog, deployment.sessions, portal.seed, IDENTIFIER_SEARCHES, BROWSES)
    client = Client(portal.server.port)
    try:
        for op in streams.to_ops(steps, deployment.sessions):
            client.timed(op)
    finally:
        client.close()
    for metric, label in (("identifier_p50_ms", "/search[identifier]"),
                          ("browse_p50_ms", "/browse/<type>/<id>")):
        good = [r[1] for r in client.records if r[3] == label and r[4]]
        if good:
            result["metrics"][metric] = _metric(
                statistics.median(good) * 1e3, "ms", len(good))
    result["failures"] += client.failures
    result["attempted"] += len(client.records)
    result["failed"] += sum(1 for r in client.records if not r[4])


def run_search_browse(seed, seconds, *, scale=1.0, warmup=WARMUP_S, root=None) -> dict:
    with Portal(seed, scale, root) as portal:
        deployment = portal.deployment
        plans = streams.search_browse_streams(deployment.catalog, deployment.sessions, seed)
        return _run_static(portal, plans, "search_browse", seconds, warmup, _slow_phase)


# -- demo_flow ------------------------------------------------------------------------


class _Flow:
    """Connection A: the paper's flow (Figures 2–16) as one scientist."""

    def __init__(self, cookie: str, project_id: int, application_id: int, seed: int):
        self.cookie = cookie
        self.project_id = project_id
        self.application_id = application_id
        self.seed = seed
        self.count = 0
        #: Sample ids whose POST was acknowledged (303), with names.
        self.acknowledged: list[tuple[int, str]] = []
        self.not_found = 0

    def _get(self, client, target, label, needle) -> "loadgen.Reply | None":
        """GET a page; the reply if it was the expected one, else None
        (the failed operation is on the client's record)."""
        reply = client.timed(Op(
            build_request("GET", target, cookie=self.cookie),
            READ, label, (200,), needle.encode("utf-8"),
        ))
        return reply if reply is not None and client.records[-1][4] else None

    def _post(self, client, target, label, fields) -> "str | None":
        """POST a form; returns the redirect target of a 303."""
        body = urlencode(fields, doseq=True).encode("utf-8")
        reply = client.timed(Op(
            build_request("POST", target, cookie=self.cookie, body=body),
            WRITE, label, (303,), b"",
        ))
        if reply is None or reply.status != 303:
            return None
        return reply.header("location")

    def __call__(self, client: Client) -> None:
        self.count += 1
        number = self.count
        pid = self.project_id
        name = f"bench{self.seed}flow{number:05d}"
        run = f"scan{number % 99 + 1:02d}"
        self._get(client, f"/projects/{pid}/samples/new", "GET sample form",
                  "Register Sample")
        where = self._post(
            client, f"/projects/{pid}/samples", "POST sample",
            {"name": name, "species": "Arabidopsis Thaliana", "description": "demo"},
        )
        if not where:
            return
        sample_id = int(where.rsplit("/", 1)[1])
        self.acknowledged.append((sample_id, name))
        for letter in ("a", "b"):
            self._post(
                client, f"/samples/{sample_id}/extracts", "POST extract",
                {"name": f"{run} {letter} {number}", "procedure": "TRIzol RNA extraction"},
            )
        reply = self._get(client, f"/api/samples/{sample_id}", "GET api sample", name)
        extract_ids = (
            [e["id"] for e in json.loads(reply.body)["extracts"]] if reply else []
        )
        where = self._post(
            client, f"/projects/{pid}/import", "POST import",
            {"provider": corpus.DEMO_PROVIDER, "workunit_name": f"{name} import",
             "mode": "copy", "file": [f"{run}_a.cel", f"{run}_b.cel"]},
        )
        if not where or len(extract_ids) != 2:
            return
        workunit_id = int(where.split("/")[2])
        reply = self._get(
            client, f"/api/workunits/{workunit_id}", "GET api workunit", f"{name} import"
        )
        resource_ids = (
            [r["id"] for r in json.loads(reply.body)["resources"]] if reply else []
        )
        self._post(
            client, f"/workunits/{workunit_id}/assign", "POST assign",
            {f"extract_{rid}": eid for rid, eid in zip(resource_ids, extract_ids)},
        )
        where = self._post(
            client, f"/projects/{pid}/experiments", "POST experiment",
            {"name": f"{name} analysis", "application_id": self.application_id,
             "attributes": "{}", "resource": resource_ids},
        )
        if not where:
            return
        where = self._post(
            client, f"{where}/run", "POST run",
            {"workunit_name": f"{name} results", "param_reference_group": "_a"},
        )
        if not where:
            return
        result_id = int(where.split("/")[2])
        self._get(client, f"/workunits/{result_id}", "GET result workunit",
                  f"{name} results")
        # The flow's own search must find the sample it just registered;
        # the link is the evidence (the page echoes the query itself).
        found = self._get(client, f"/search?q={name}", "GET search new sample",
                          f'href="/samples/{sample_id}"')
        if found is None:
            self.not_found += 1


class _Poller:
    """Connection B: a colleague revisiting pages with the validator of
    the previous visit.  *stable* routes read no table the flow writes
    (every revisit must be a 304); the *project* page and the sample
    *pages* show the project being written (a 304 only when nothing
    they read was committed in between).

    A block is 7 stable polls, the project page once and 2 sample
    pages.  Beside the flow's own five GETs that keeps the median of
    all reads inside the 304s (about 60 % of them) and their p95 inside
    the two heavy renders, project page and result workunit (about
    12 %), however many polls fit beside one flow: neither statistic
    sits where two kinds of request meet.
    """

    STABLE_PER_BLOCK = 7
    PAGES_PER_BLOCK = 2

    def __init__(self, cookie: str, stable: list[str], project: tuple[str, str],
                 pages: list[tuple[str, str]], seed: int):
        self.cookie = cookie
        self.rng = random.Random(f"demo_flow/poller/{seed}")
        self.stable = stable
        self.project = project
        self.pages = pages
        #: target -> (etag, the body it was issued for)
        self.seen: dict[str, tuple[str, bytes]] = {}
        self.not_modified = 0
        self.rechecked = 0
        #: Same validator, other body — each with where the bodies part.
        self.false_304: list[str] = []
        self.unexpected_render = 0

    def prime(self, client: Client) -> None:
        """First visits (untimed): collect validators."""
        for target in self.stable + [t for t, _ in [self.project] + self.pages]:
            reply = client.get(target, cookie=self.cookie)
            self._remember(target, reply)

    def _remember(self, target: str, reply) -> None:
        etag = reply.header("etag")
        if reply.status == 200 and etag:
            self.seen[target] = (etag, reply.body)

    def _poll(self, client: Client, target: str, needle: str, stable: bool) -> None:
        etag, body = self.seen.get(target, ("", b""))
        headers = (("If-None-Match", etag),) if etag else ()
        label = ("poll stable " if stable else "poll written ") + re.sub(r"\d+", "<id>", target)
        reply = client.timed(Op(
            build_request("GET", target, cookie=self.cookie, headers=headers),
            READ, label, (304,) if stable and etag else (200, 304),
            needle.encode("utf-8"),
        ))
        if reply is None:
            return
        if reply.status == 200:
            if stable and etag:
                self.unexpected_render += 1
            self._remember(target, reply)
            return
        self.not_modified += 1
        if self.not_modified % RECHECK_EVERY == 0:
            # No false 304: an unconditional GET that still carries the
            # same validator must carry the body it was issued for.  (A
            # different validator means a commit landed in between.)
            fresh = client.get(target, cookie=self.cookie)
            if fresh.header("etag") == etag:
                self.rechecked += 1
                if fresh.body != body:
                    at = next((i for i, (x, y) in enumerate(zip(body, fresh.body)) if x != y),
                              min(len(body), len(fresh.body)))
                    cut = slice(max(0, at - 60), at + 60)
                    self.false_304.append(
                        f"{target} from byte {at}: {body[cut].decode('utf-8', 'replace')!r} "
                        f"then {fresh.body[cut].decode('utf-8', 'replace')!r}")
        time.sleep(POLL_THINK_S)

    def __call__(self, client: Client) -> None:
        picks = (
            [(t, "", True) for t in self.rng.choices(self.stable, k=self.STABLE_PER_BLOCK)]
            + [(*self.project, False)]
            + [(t, n, False)
               for t, n in self.rng.choices(self.pages, k=self.PAGES_PER_BLOCK)]
        )
        self.rng.shuffle(picks)
        for target, needle, stable in picks:
            self._poll(client, target, needle, stable)


def demo_actors(deployment: corpus.Deployment, seed: int):
    """Who writes where, and what the colleague polls."""
    catalog = deployment.catalog
    scientist = deployment.demo
    project_id = scientist.project_ids[0]
    colleague = next(s for s in deployment.sessions if s.role == "employee")
    stable = ["/projects", "/api/projects"]
    samples = catalog.samples.get(project_id, [])[:8]
    project = (f"/projects/{project_id}", catalog.project_names[project_id])
    pages = []
    for sample_id, name in samples:
        pages.append((f"/samples/{sample_id}", name))
        pages.append((f"/api/samples/{sample_id}", name))
    flow = _Flow(scientist.cookie, project_id, catalog.application_id, seed)
    # (A smoke-scale project may have no samples yet.)
    poller = _Poller(colleague.cookie, stable, project, pages or [project], seed)
    return flow, poller


def check_durability(data_dir: Path, acknowledged: list[tuple[int, str]]) -> dict:
    """After ``SIGKILL``: recover the directory and read every sample
    whose POST the server acknowledged.

    This is a process crash, not power loss — the OS page cache
    survives, so bytes written but not fsynced are still there.
    """
    from repro.facade import BFabric

    started = time.perf_counter()
    system = BFabric(data_dir)
    system.recover()
    missing = [
        sample_id for sample_id, name in acknowledged
        if (system.db.get_or_none("sample", sample_id) or {}).get("name") != name
    ]
    system.close()
    return {
        "kind": "process crash (SIGKILL); OS cache intact, not a power loss",
        "acknowledged": len(acknowledged),
        "missing": len(missing),
        "recover_s": time.perf_counter() - started,
    }


def run_demo_flow(seed, seconds, *, scale=1.0, warmup=WARMUP_S, root=None) -> dict:
    with Portal(seed, scale, root, demo=True) as portal:
        flow, poller = demo_actors(portal.deployment, seed)
        probe = Client(portal.server.port)
        try:
            poller.prime(probe)
            before = read_counters(probe, flow.cookie)
            runs = loadgen.run_closed_loops(
                portal.server.port, [[flow], [poller]][:max(1, CONNECTIONS)],
                warmup=warmup, seconds=seconds,
            )
            after = read_counters(probe, flow.cookie)
        finally:
            probe.close()
        # The workload's operations are the scientist's flow steps; the
        # colleague's polls are the read side measured beside them.
        result = summarize(runs, tail_percentile("demo_flow"), throughput_runs=runs[:1])
        portal.finish(result, before, after)
        portal.server.kill()
        durability = check_durability(portal.dir / "data", flow.acknowledged)
        checks = {
            "flows": flow.count,
            "search_missed_new_sample": flow.not_found,
            "not_modified": poller.not_modified,
            "rechecked_304": poller.rechecked,
            "false_304": len(poller.false_304),
            "false_304_where": poller.false_304[:3],
            "stable_route_rerendered": poller.unexpected_render,
            "durability": durability,
        }
        result["checks"] = checks
        result["polls_per_s"] = (
            sum(1 for r in runs[-1].records if r[4]) / runs[-1].elapsed
            if len(runs) > 1 else 0.0
        )
        # A sample lost in the crash is a failed operation on top of the
        # stream's.  A false 304 is reported, not failed: the program has
        # one (README, first finding) that shows in one run of forty.
        result["attempted"] += poller.rechecked + durability["acknowledged"]
        result["failed"] += durability["missing"]
        return result


# -- engine_mixed -------------------------------------------------------------------------

#: Operations per block: 80 % reads over five shapes, 20 % transactions.
ENGINE_MIX = (
    ("pk_get", 8), ("pk_query", 8), ("indexed_eq", 8), ("range_limit", 8),
    ("hot_set", 8), ("insert_sample", 5), ("update_workunit", 5),
)
HOT_KEYS = 20
_STATUSES = ("available", "processing", "pending", "failed")


def engine_stream(catalog: corpus.Catalog, seed: int, blocks: int) -> list[list[tuple]]:
    """``[(kind, argument), ...]`` per block, all drawn before the clock."""
    rng = random.Random(f"engine_mixed/{seed}")
    project_ids = [pid for pid, _n, _o in catalog.projects]
    weights = [1.0 / (i + 1) for i in range(len(project_ids))]
    workunit_ids = sorted(w for ws in catalog.workunits.values() for w, _ in ws)
    sample_ids = sorted(s for ss in catalog.samples.values() for s, _ in ss)
    hot = rng.sample(project_ids, min(HOT_KEYS, len(project_ids)))
    stream = []
    for _ in range(blocks):
        block = []
        for kind, count in ENGINE_MIX:
            for _ in range(count):
                if kind in ("pk_get", "range_limit", "update_workunit"):
                    argument = rng.choice(workunit_ids)
                elif kind == "pk_query":
                    argument = rng.choice(sample_ids)
                elif kind == "hot_set":
                    argument = rng.choice(hot)
                else:  # indexed_eq, insert_sample: project drawn by size rank
                    argument = rng.choices(project_ids, weights=weights)[0]
                block.append((kind, argument))
        rng.shuffle(block)
        stream.append(block)
    return stream


def run_engine_mixed(seed, seconds, *, scale=1.0, warmup=1.0, root=None,
                     blocks: "int | None" = None) -> dict:
    """One thread, no sockets, ``durability="buffered"``.

    With *blocks* the measured part is exactly that many blocks instead
    of a time window, which makes every count repeat run to run.
    """
    directory = workdir(root)
    try:
        started = time.perf_counter()
        deployment = corpus.build_deployment(
            directory / "data", seed, scale, keep_open=True, durability="buffered"
        )
        setup_s = time.perf_counter() - started
        system = deployment.system
        try:
            result = _drive_engine(system, deployment.catalog, seed, seconds, warmup, blocks)
            del result["records"]
            result["metrics"]["setup_s"] = _metric(setup_s, "s", 1)
            result["metrics"]["rss_mb"] = _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
            )
            result["metrics"]["disk_mb"] = _metric(
                corpus.directory_mb(directory / "data"), "MB", 1
            )
            result["phases"] = deployment.phases
        finally:
            system.close()
        return result
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _drive_engine(system, catalog, seed, seconds, warmup, blocks, around=None) -> dict:
    """*around*, if given, opens a context around every operation (the
    traced run's root span)."""
    db = system.db
    stream = engine_stream(catalog, seed, blocks or 4000)
    names = {
        wid: name for ws in catalog.workunits.values() for wid, name in ws
    }
    sample_names = {
        sid: name for ss in catalog.samples.values() for sid, name in ss
    }
    # Counted from the table, not the catalog: an earlier call on the
    # same system has inserted samples of its own.
    project_samples = {pid: 0 for pid, _n, _o in catalog.projects}
    for row in db.rows("sample"):
        project_samples[row["project_id"]] += 1
    owner = {pid: uid for pid, _n, uid in catalog.projects}
    now = system.clock.now()
    clock = time.perf_counter
    inserted = db.count("sample")  # names stay unique across calls on one system

    def execute(kind: str, argument: int) -> bool:
        nonlocal inserted
        if kind == "pk_get":
            return db.get("workunit", argument)["name"] == names[argument]
        if kind == "pk_query":
            rows = db.query("sample").where("id", "=", argument).all()
            return len(rows) == 1 and rows[0]["name"] == sample_names[argument]
        if kind == "indexed_eq":
            rows = db.query("sample").where("project_id", "=", argument).all()
            return len(rows) == project_samples[argument]
        if kind == "range_limit":
            rows = (
                db.query("workunit").where("name", ">=", names[argument])
                .order_by("name").limit(10).all()
            )
            return bool(rows) and rows[0]["id"] == argument and len(rows) <= 10
        if kind == "hot_set":
            rows = db.query("project").where("id", "=", argument).all()
            return len(rows) == 1 and rows[0]["name"] == catalog.project_names[argument]
        if kind == "insert_sample":
            inserted += 1
            with db.transaction() as txn:
                txn.insert("sample", {
                    "name": f"engine sample {inserted:07d}",
                    "project_id": argument,
                    "species": "Mus musculus",
                    "description": "",
                    "attributes": {},
                    "created_by": owner[argument],
                    "created_at": now,
                })
            project_samples[argument] += 1
            return True
        if kind == "update_workunit":
            status = _STATUSES[inserted % len(_STATUSES)]
            with db.transaction() as txn:
                txn.update("workunit", argument, {"status": status})
            return db.get("workunit", argument)["status"] == status
        raise ValueError(kind)

    writes = ("insert_sample", "update_workunit")
    records: list = []
    failures: list[str] = []
    measured: list[tuple[float, float]] = []
    warm_until = clock() + warmup
    cache_before = db.query_cache.statistics()
    position = 0
    while True:
        block = stream[position % len(stream)]
        position += 1
        started = clock()
        warming = started < warm_until and blocks is None
        for kind, argument in block:
            t0 = clock()
            if around is None:
                ok = execute(kind, argument)
            else:
                with around():
                    ok = execute(kind, argument)
            t1 = clock()
            if not warming:
                records.append(
                    (t1, t1 - t0, WRITE if kind in writes else READ, kind, ok, 0)
                )
                if not ok and len(failures) < 5:
                    failures.append(f"{kind}({argument}): wrong answer")
        if warming:
            cache_before = db.query_cache.statistics()
            continue
        ended = clock()
        measured.append((started, ended))
        if (blocks is not None and len(measured) >= blocks) or (
            blocks is None and ended >= measured[0][0] + seconds
        ):
            break
    cache_after = db.query_cache.statistics()
    result = summarize(
        [ConnectionRun(records, measured, 0, failures=failures)],
        tail_percentile("engine_mixed"),
    )
    result["counters"] = {
        f"query_cache[{k}]": cache_after["lookups"].get(k, 0) - cache_before["lookups"].get(k, 0)
        for k in ("hit", "miss", "bypass")
    }
    result["counters"]["query_cache_evictions"] = (
        cache_after["evictions"] - cache_before["evictions"]
    )
    result["counters"]["operations"] = len(records)
    result["records"] = records
    return result


WORKLOADS = {
    "page_read": run_page_read,
    "search_browse": run_search_browse,
    "demo_flow": run_demo_flow,
    "engine_mixed": run_engine_mixed,
}
