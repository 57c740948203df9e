"""``bfabric`` — the command-line administration tool.

Operates on a durable deployment directory (the argument every
subcommand takes via ``--data``).  Subcommands:

* ``init`` — create a deployment and its first admin user;
* ``stats`` — print the deployment-statistics table (paper Final Remark);
  ``--window N`` adds windowed per-second rates from the metrics
  history ring;
* ``metrics`` — dump the observability registry (text exposition or JSON);
* ``slowlog`` — show operations that blew their latency budget, with
  the query planner's ``explain()`` output where one was captured;
* ``debug-bundle`` — write the flight-recorder bundle (traces, slow
  ops, metrics history, log tail, storage/replication state) as one
  schema-validated JSON file;
* ``integrity`` — run the storage self-checks;
* ``checkpoint`` — snapshot the database and truncate the WAL;
* ``reindex`` — rebuild the full-text index;
* ``audit`` — show recent audit entries;
* ``search`` — run a query from the shell;
* ``generate`` — synthesize an FGCZ-scale benchmark deployment;
* ``bench`` — measure the storage hot paths, write a JSON report;
* ``serve`` — run the web portal on the threaded portal server;
* ``replicate`` — WAL-shipping replication: ``serve`` publishes this
  deployment's log, ``join`` follows a primary, ``status`` prints the
  local replication position, ``promote`` heals a replica directory
  into a writable primary;
* ``queue`` — the durable job queue: ``status`` shows backlog depth and
  per-state/per-type counts, ``retry`` re-queues dead jobs, ``drain``
  runs workers until the backlog is empty;
* ``maintenance`` — housekeeping (``prune`` sweeps MVCC version
  chains).

Usage::

    python -m repro.cli --data /var/lib/bfabric init --admin-password s3cret
    python -m repro.cli --data /var/lib/bfabric stats
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.facade import BFabric


def _open(args: argparse.Namespace) -> BFabric:
    system = BFabric(args.data, durability=getattr(args, "durability", None))
    system.recover()
    return system


def _principal(system: BFabric, login: str):
    user = system.directory.user_by_login(login)
    if user is None:
        raise SystemExit(f"error: no user named {login!r} (run init first?)")
    return system.directory.principal_for(user)


def cmd_init(args: argparse.Namespace) -> int:
    # A brand-new directory recovers as empty; a deployment that cannot
    # be read fails here, before bootstrap and checkpoint write over it.
    system = _open(args)
    principal = system.bootstrap(
        login=args.admin_login, password=args.admin_password
    )
    system.db.checkpoint()
    print(f"initialized deployment at {args.data}")
    print(f"admin user: {principal.login}")
    system.close()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    system = _open(args)
    stats = system.deployment_statistics()
    width = max(len(k) for k in stats)
    for key, value in stats.items():
        print(f"{key:<{width}}  {value}")
    storage = system.db.statistics()
    print(f"\ntotal rows: {storage['total_rows']}, "
          f"WAL: {storage['wal_bytes']} bytes")
    mvcc = storage["mvcc"]
    print(f"MVCC: committed seq {mvcc['committed_seq']}, "
          f"open snapshots {mvcc['open_snapshots']}, "
          f"version horizon {mvcc['version_horizon']}, "
          f"retained versions {mvcc['retained_versions']}")
    search = system.search.statistics()
    print(f"search: {search['documents']} documents, {search['terms']} terms, "
          f"{search['postings']} postings in {search['posting_shapes']} shapes")
    snapshot = system.monitor.snapshot()
    print(f"commits observed: {snapshot['commits']}")
    queue = system.queue.status()
    states = queue["states"]
    print(f"queue: depth {queue['depth']} "
          f"(pending {states['pending']}, leased {states['leased']}, "
          f"retry_wait {states['retry_wait']}), "
          f"done {states['done']}, dead {states['dead']}, "
          f"lease expirations {queue['lease_expirations']}")
    for job_type, counts in sorted(queue["per_type"].items()):
        parts = ", ".join(
            f"{state} {count}" for state, count in counts.items() if count
        )
        print(f"  {job_type:<24s} {parts}")
    latency = snapshot["latency"]
    if latency:
        print("latency (seconds):")
        for name, summary in sorted(latency.items()):
            print(f"  {name:<32s} n={summary['count']:<7d} "
                  f"p50={summary['p50']:.6f} p95={summary['p95']:.6f} "
                  f"p99={summary['p99']:.6f}")
    if args.window is not None:
        history = system.obs.history
        history.capture()  # the freshest sample anchors the window
        summary = history.window_summary(window=args.window)
        print(f"\nwindowed rates, last {args.window:g}s "
              f"({summary['samples']} samples, "
              f"span {summary['span_seconds']:.1f}s):")
        for key, info in sorted(summary["keys"].items()):
            if "rate" in info:
                if info["rate"]:
                    print(f"  {key:<52s} {info['rate']:>10.3f}/s "
                          f"(total {info['last']:g})")
            else:
                print(f"  {key:<52s} last={info['last']:g} "
                      f"min={info['min']:g} max={info['max']:g}")
    system.close()
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    system = _open(args)
    if args.format == "json":
        import json

        print(json.dumps(system.obs.metrics.snapshot(), indent=2, default=str))
    else:
        print(system.obs.metrics.render_text(), end="")
    system.close()
    return 0


def cmd_slowlog(args: argparse.Namespace) -> int:
    import json

    system = _open(args)
    entries = system.obs.slowlog.entries(name=args.name, limit=args.limit)
    if not entries:
        print("slow-op log is empty")
        system.close()
        return 0
    for entry in entries:
        attrs = ", ".join(
            f"{k}={v}" for k, v in sorted(entry["attributes"].items())
        )
        trace = entry.get("trace_id") or "-"
        print(f"{entry['ts']}  {entry['name']:<20s} "
              f"{entry['duration']:.6f}s (budget {entry['threshold']:g}s, "
              f"{entry.get('status', 'ok')})  trace={trace}  {attrs}")
        explain = entry.get("explain")
        if explain is not None:
            print(f"    explain: "
                  f"{json.dumps(explain, sort_keys=True, default=str)}")
    print(f"\n{len(entries)} shown, "
          f"{system.obs.slowlog.promoted} promoted in total")
    system.close()
    return 0


def cmd_debug_bundle(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import (
        collect_debug_bundle,
        validate_debug_bundle,
        write_debug_bundle,
    )

    system = _open(args)
    bundle = collect_debug_bundle(system, note=args.note)
    system.close()
    problems = validate_debug_bundle(bundle)
    out = Path(args.out) if args.out else Path(args.data) / "debug"
    path = write_debug_bundle(bundle, out)
    print(f"debug bundle written: {path}")
    print(f"traces={len(bundle['traces'])} "
          f"slow_ops={len(bundle['slow_ops'])} "
          f"history_samples={len(bundle['metrics_history'])} "
          f"log_records={len(bundle['log_tail'])}")
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}")
        return 1
    print(f"bundle validated against {bundle['schema']}")
    return 0


def cmd_integrity(args: argparse.Namespace) -> int:
    system = _open(args)
    problems = system.db.verify_integrity()
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}")
        system.close()
        return 1
    print("integrity check passed: no problems found")
    system.close()
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    system = _open(args)
    path = system.db.checkpoint()
    print(f"checkpoint written: {path}")
    system.close()
    return 0


def cmd_reindex(args: argparse.Namespace) -> int:
    system = _open(args)
    count = system.reindex_all()
    print(f"indexed {count} documents "
          f"({system.search.statistics()['terms']} terms)")
    system.close()
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    system = _open(args)
    for entry in system.audit.recent(limit=args.limit):
        print(f"{entry.at}  {entry.user_login:<12s} {entry.action:<7s} "
              f"{entry.entity_type}:{entry.entity_id}  {entry.summary}")
    system.close()
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    system = _open(args)
    principal = _principal(system, args.as_user)
    results = system.search.search(
        principal, " ".join(args.query), limit=args.limit
    )
    if not results:
        print("no results")
    for result in results:
        print(f"{result.score:8.4f}  {result.entity_type:<14s} "
              f"{result.label}  — {result.snippet}")
    system.close()
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.workload import DeploymentGenerator, FGCZ_JANUARY_2010

    system = _open(args)
    spec = FGCZ_JANUARY_2010.scaled(args.scale)
    counts = DeploymentGenerator(system, seed=args.seed).generate(spec)
    for key, value in counts.items():
        print(f"{key:<15s} {value}")
    system.db.checkpoint()
    system.close()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    system = _open(args)
    principal = _principal(system, args.as_user)
    report = system.reports.full_report(principal)
    print("Busiest projects:")
    for row in report["projects"]:
        print(f"  {row['project']:<40s} workunits={row['workunits']:<6d} "
              f"samples={row['samples']}")
    print("Storage by mode:")
    for mode, info in sorted(report["storage"].items()):
        print(f"  {mode:<10s} resources={info['resources']:<8d} "
              f"bytes={info['bytes']}")
    print("Vocabulary health:", dict(sorted(report["vocabulary"].items())))
    system.close()
    return 0


def cmd_provenance(args: argparse.Namespace) -> int:
    system = _open(args)
    record = system.provenance.trace(args.workunit_id)
    print(record.render_text())
    system.close()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_benchmarks, write_report

    report = run_benchmarks(
        scale=args.scale, threads=args.threads, data_dir=args.data
    )
    write_report(report, args.out)
    print(f"benchmark report written: {args.out}")
    return 0


def cmd_dlq(args: argparse.Namespace) -> int:
    system = _open(args)
    try:
        if args.dlq_command == "list":
            letters = system.dlq.list(
                status=None if args.all else "dead"
            )
            if not letters:
                print("dead-letter queue is empty")
                return 0
            for letter in letters:
                print(
                    f"#{letter.id:<5d} {letter.status:<9s} "
                    f"{letter.event:<28s} {letter.handler:<36s} "
                    f"attempts={letter.attempts}  {letter.error}"
                )
            return 0
        if args.dlq_command == "retry":
            if args.id is not None:
                try:
                    letter = system.dlq.retry(args.id, system.events)
                except Exception as exc:
                    print(f"retry of #{args.id} failed: {exc}")
                    return 1
                print(f"#{letter.id} redelivered ({letter.event})")
                return 0
            succeeded, failed = system.dlq.retry_all(system.events)
            print(f"retried: {succeeded} succeeded, {failed} failed")
            return 0 if failed == 0 else 1
        if args.dlq_command == "discard":
            letter = system.dlq.discard(args.id)
            print(f"#{letter.id} discarded ({letter.event})")
            return 0
        raise SystemExit(f"unknown dlq command {args.dlq_command!r}")
    finally:
        system.close()


def cmd_queue(args: argparse.Namespace) -> int:
    system = _open(args)
    try:
        if args.queue_command == "status":
            status = system.queue.status()
            states = status["states"]
            print(f"depth: {status['depth']} runnable "
                  f"(pending {states['pending']}, leased {states['leased']}, "
                  f"retry_wait {states['retry_wait']})")
            print(f"terminal: done {states['done']}, dead {states['dead']}")
            print(f"lease expirations: {status['lease_expirations']}")
            print(f"duplicates suppressed: {status['duplicates_suppressed']}")
            print(f"shed (backpressure): {status['shed']}")
            print(f"active workers: {status['active_workers']}")
            if status["per_type"]:
                print("per job type:")
                for job_type, counts in sorted(status["per_type"].items()):
                    parts = ", ".join(
                        f"{state} {count}"
                        for state, count in counts.items()
                        if count
                    )
                    print(f"  {job_type:<24s} {parts}")
            return 0
        if args.queue_command == "retry":
            if args.id is not None:
                try:
                    job = system.queue.retry_dead(args.id)
                except Exception as exc:
                    print(f"retry of job #{args.id} failed: {exc}")
                    return 1
                print(f"job #{job.id} ({job.job_type}) re-queued")
                return 0
            revived = system.queue.retry_all_dead()
            print(f"re-queued {revived} dead job(s)")
            return 0
        if args.queue_command == "drain":
            depth = system.queue.depth()
            if depth == 0:
                print("queue is empty — nothing to drain")
                return 0
            print(f"draining {depth} job(s) with {args.workers} worker(s)...")
            system.start_workers(workers=args.workers, name="drain")
            system.stop_workers(drain=True, timeout=args.timeout)
            remaining = system.queue.depth()
            dead = len(system.queue.list(state="dead"))
            print(f"done: {remaining} job(s) left runnable, {dead} dead")
            return 0 if remaining == 0 else 1
        raise SystemExit(f"unknown queue command {args.queue_command!r}")
    finally:
        system.close()


def cmd_torture(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.resilience.torture import run_replication_torture, run_torture

    # The driver creates its own throwaway databases under the
    # deployment directory; the deployment itself is never touched.
    base = Path(args.data) / "torture"
    if args.ingest:
        from repro.resilience.torture import run_ingest_torture

        report = run_ingest_torture(
            base / "ingest", jobs=args.jobs, seed=args.seed
        )
        print(report.summary())
        return 0 if report.ok else 1
    if args.replication:
        report = run_replication_torture(
            base / "replication",
            commits=max(args.commits, 20),
            seed=args.seed,
        )
        print(report.summary())
        return 0 if report.ok else 1
    kwargs = {}
    if args.mode:
        kwargs["modes"] = (args.mode,)
    report = run_torture(base, commits=args.commits, seed=args.seed, **kwargs)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_replicate(args: argparse.Namespace) -> int:
    import time

    from repro.replication import Replica, ReplicationPublisher

    if args.replicate_command == "status":
        system = _open(args)
        stats = system.db.statistics()
        print(f"committed seq:    {system.db.committed_seq}")
        print(f"WAL bytes:        {stats['wal_bytes']}")
        mvcc = stats["mvcc"]
        print(f"open snapshots:   {mvcc['open_snapshots']}")
        print(f"version horizon:  {mvcc['version_horizon']}")
        system.close()
        return 0

    if args.replicate_command == "promote":
        # Offline heal: turn an abandoned replica directory into a
        # writable primary.  Online promotion (a live Replica object)
        # goes through ReplicaSet.failover(); this verb covers the
        # process-per-node deployment where the replica process died.
        system = BFabric(args.data, durability=getattr(args, "durability", None))
        if system.db.wal is not None:
            system.db.wal.truncate_torn_tail()
        system.recover()
        problems = system.db.verify_integrity()
        if problems:
            for problem in problems:
                print(f"PROBLEM: {problem}")
            system.close()
            return 1
        # Post-promotion commits are a new lineage: mint a fresh history
        # id so replicas of the dead primary bootstrap rather than
        # resume when they re-join this directory's publisher.
        system.db.new_history()
        system.db.checkpoint()
        seq = system.db.committed_seq
        print(f"promoted: {args.data} is writable at commit seq {seq}")
        system.close()
        return 0

    if args.replicate_command == "serve":
        system = _open(args)
        system.obs.history.start()  # windowed lag/frame rates for stats
        publisher = ReplicationPublisher(
            system.db, host=args.host, port=args.port, obs=system.obs
        ).start()
        print(f"publishing WAL of {args.data} "
              f"on {publisher.host}:{publisher.port}")
        deadline = (
            time.monotonic() + args.duration if args.duration else None
        )
        try:
            while deadline is None or time.monotonic() < deadline:
                time.sleep(0.2)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        status = publisher.status()
        publisher.stop()
        system.obs.history.stop()
        system.close()
        print(f"served seq {status['last_seq']} to "
              f"{len(status['replicas'])} replica(s)")
        return 0

    if args.replicate_command == "join":
        host, _, port = args.primary.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(
                f"error: --primary must be host:port, got {args.primary!r}"
            )
        system = BFabric(args.data, durability=getattr(args, "durability", None))
        try:
            system.recover()
        except Exception:
            pass  # brand-new replica directory; bootstrap will fill it
        replica = Replica(
            system,
            (host, int(port)),
            name=args.name,
            max_lag=args.max_lag,
        ).start()
        print(f"replica {replica.name!r} following {host}:{port} "
              f"from seq {replica.applied_seq}")
        deadline = (
            time.monotonic() + args.duration if args.duration else None
        )
        try:
            while deadline is None or time.monotonic() < deadline:
                time.sleep(0.5)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        status = replica.status()
        replica.stop()
        system.close()
        print(f"applied seq {status['applied_seq']} "
              f"(lag {status['lag_seqs']}, connected={status['connected']})")
        return 0

    raise SystemExit(f"unknown replicate command {args.replicate_command!r}")


def cmd_maintenance(args: argparse.Namespace) -> int:
    system = _open(args)
    try:
        if args.maintenance_command == "prune":
            reclaimed = system.db.prune_versions()
            for name, count in sorted(reclaimed.items()):
                if count:
                    print(f"{name:<20s} {count}")
            total = sum(reclaimed.values())
            print(f"pruned {total} retained version(s) "
                  f"(horizon seq {system.db.version_horizon()})")
            return 0
        raise SystemExit(
            f"unknown maintenance command {args.maintenance_command!r}"
        )
    finally:
        system.close()


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.portal import PortalApplication
    from repro.portal.server import PortalServer
    from repro.util.heap import freeze_survivors

    system = _open(args)
    # Warm-up: build the index now, not on the first visitor's search.
    system.reindex_all()
    # The recovered corpus and the index live as long as the process:
    # keep full collections from walking them on every serving pause.
    freeze_survivors()
    # Periodic registry sampling makes `repro stats --window` and
    # /admin/metrics/history meaningful for this portal session.
    system.obs.history.start()
    server = PortalServer(
        PortalApplication(system), args.host, args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        keep_alive=args.keep_alive,
    )
    server.start()
    print(
        f"serving the B-Fabric portal on http://{args.host}:{server.port} "
        f"({args.workers} workers, max {args.max_inflight} in flight)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
    system.obs.history.stop()
    system.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfabric",
        description="Administer a B-Fabric deployment directory",
    )
    parser.add_argument(
        "--data", required=True, help="deployment directory (WAL + store)"
    )
    parser.add_argument(
        "--durability",
        default=None,
        help="WAL durability mode: always (default), "
        "group[:window_ms:max_batch], or buffered",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create deployment + admin user")
    p_init.add_argument("--admin-login", default="admin")
    p_init.add_argument("--admin-password", default="admin")
    p_init.set_defaults(func=cmd_init)

    p_stats = sub.add_parser("stats", help="deployment statistics table")
    p_stats.add_argument(
        "--window", type=float, default=None, metavar="SECONDS",
        help="also print windowed per-second rates from the metrics "
        "history ring (counters) and last/min/max (gauges)",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_metrics = sub.add_parser(
        "metrics", help="dump the observability metrics registry"
    )
    p_metrics.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text = Prometheus exposition, json = structured snapshot",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_slowlog = sub.add_parser(
        "slowlog", help="operations that blew their latency budget"
    )
    p_slowlog.add_argument(
        "--limit", type=int, default=50, help="newest N entries to show"
    )
    p_slowlog.add_argument(
        "--name", default=None,
        help="filter to one operation (e.g. storage.query)",
    )
    p_slowlog.set_defaults(func=cmd_slowlog)

    p_bundle = sub.add_parser(
        "debug-bundle",
        help="write the flight-recorder bundle as one JSON file",
    )
    p_bundle.add_argument(
        "--out", default=None, metavar="DIR",
        help="target directory (default: <data>/debug)",
    )
    p_bundle.add_argument(
        "--note", default="", help="free-form note stored in the bundle"
    )
    p_bundle.set_defaults(func=cmd_debug_bundle)

    p_integrity = sub.add_parser("integrity", help="storage self-checks")
    p_integrity.set_defaults(func=cmd_integrity)

    p_checkpoint = sub.add_parser("checkpoint", help="snapshot + truncate WAL")
    p_checkpoint.set_defaults(func=cmd_checkpoint)

    p_reindex = sub.add_parser("reindex", help="rebuild the search index")
    p_reindex.set_defaults(func=cmd_reindex)

    p_audit = sub.add_parser("audit", help="recent audit entries")
    p_audit.add_argument("--limit", type=int, default=20)
    p_audit.set_defaults(func=cmd_audit)

    p_search = sub.add_parser("search", help="run a search query")
    p_search.add_argument("query", nargs="+")
    p_search.add_argument("--as-user", default="admin")
    p_search.add_argument("--limit", type=int, default=10)
    p_search.set_defaults(func=cmd_search)

    p_generate = sub.add_parser(
        "generate", help="synthesize an FGCZ-scale deployment"
    )
    p_generate.add_argument("--scale", type=float, default=1.0)
    p_generate.add_argument("--seed", type=int, default=2010)
    p_generate.set_defaults(func=cmd_generate)

    p_report = sub.add_parser("report", help="facility usage report")
    p_report.add_argument("--as-user", default="admin")
    p_report.set_defaults(func=cmd_report)

    p_provenance = sub.add_parser(
        "provenance", help="derivation record of a workunit"
    )
    p_provenance.add_argument("workunit_id", type=int)
    p_provenance.set_defaults(func=cmd_provenance)

    p_bench = sub.add_parser(
        "bench", help="measure the storage hot paths, write a JSON report"
    )
    p_bench.add_argument(
        "--scale", type=float, default=1.0,
        help="workload multiplier (CI smoke uses ~0.1)",
    )
    p_bench.add_argument(
        "--threads", type=int, default=48,
        help="concurrent committers for the group-commit comparison",
    )
    p_bench.add_argument("--out", default="BENCH_PR8.json")
    p_bench.set_defaults(func=cmd_bench)

    p_dlq = sub.add_parser(
        "dlq", help="inspect and replay the event dead-letter queue"
    )
    dlq_sub = p_dlq.add_subparsers(dest="dlq_command", required=True)
    p_dlq_list = dlq_sub.add_parser("list", help="show dead letters")
    p_dlq_list.add_argument(
        "--all", action="store_true",
        help="include retried and discarded letters",
    )
    p_dlq_list.set_defaults(func=cmd_dlq)
    p_dlq_retry = dlq_sub.add_parser(
        "retry", help="redeliver one letter (or every dead one)"
    )
    p_dlq_retry.add_argument(
        "id", type=int, nargs="?", default=None,
        help="letter id; omit to retry all dead letters",
    )
    p_dlq_retry.set_defaults(func=cmd_dlq)
    p_dlq_discard = dlq_sub.add_parser("discard", help="drop one letter")
    p_dlq_discard.add_argument("id", type=int)
    p_dlq_discard.set_defaults(func=cmd_dlq)

    p_queue = sub.add_parser(
        "queue", help="inspect and operate the durable job queue"
    )
    queue_sub = p_queue.add_subparsers(dest="queue_command", required=True)
    p_queue_status = queue_sub.add_parser(
        "status", help="backlog depth, per-state and per-type counts"
    )
    p_queue_status.set_defaults(func=cmd_queue)
    p_queue_retry = queue_sub.add_parser(
        "retry", help="re-queue one dead job (or every dead one)"
    )
    p_queue_retry.add_argument(
        "id", type=int, nargs="?", default=None,
        help="job id; omit to retry all dead jobs",
    )
    p_queue_retry.set_defaults(func=cmd_queue)
    p_queue_drain = queue_sub.add_parser(
        "drain", help="run workers until the backlog is empty, then stop"
    )
    p_queue_drain.add_argument("--workers", type=int, default=2)
    p_queue_drain.add_argument("--timeout", type=float, default=300.0)
    p_queue_drain.set_defaults(func=cmd_queue)

    p_torture = sub.add_parser(
        "torture",
        help="crash-point torture: kill the WAL at every fault site, "
        "verify recovery in all durability modes",
    )
    p_torture.add_argument("--commits", type=int, default=6)
    p_torture.add_argument("--seed", type=int, default=2010)
    p_torture.add_argument(
        "--ingest",
        action="store_true",
        help="run the ingest scenario instead: kill queue workers at "
        "every lease-protocol fault site mid-import (plus a full "
        "database restart), verify no job is lost and no import's "
        "effects are applied twice",
    )
    p_torture.add_argument(
        "--jobs", type=int, default=4,
        help="import jobs per ingest-torture case",
    )
    p_torture.add_argument(
        "--mode",
        default=None,
        help="restrict to one durability mode (e.g. always, group:4:32, "
        "buffered); default runs all modes",
    )
    p_torture.add_argument(
        "--replication",
        action="store_true",
        help="run the replication scenario instead: kill the primary "
        "mid-stream, promote the most-caught-up replica, verify no "
        "confirmed commit is lost",
    )
    p_torture.set_defaults(func=cmd_torture)

    p_replicate = sub.add_parser(
        "replicate", help="WAL-shipping replication: publish, follow, promote"
    )
    rep_sub = p_replicate.add_subparsers(dest="replicate_command", required=True)
    p_rep_serve = rep_sub.add_parser(
        "serve", help="publish this deployment's WAL to replicas"
    )
    p_rep_serve.add_argument("--host", default="127.0.0.1")
    p_rep_serve.add_argument("--port", type=int, default=9443)
    p_rep_serve.add_argument(
        "--duration", type=float, default=None,
        help="stop after N seconds (default: run until interrupted)",
    )
    p_rep_serve.set_defaults(func=cmd_replicate)
    p_rep_join = rep_sub.add_parser(
        "join", help="follow a primary as a read-only replica"
    )
    p_rep_join.add_argument(
        "--primary", required=True, metavar="HOST:PORT",
        help="address of the primary's replicate-serve endpoint",
    )
    p_rep_join.add_argument("--name", default="replica")
    p_rep_join.add_argument(
        "--max-lag", type=int, default=None,
        help="staleness bound in commit sequences for local reads",
    )
    p_rep_join.add_argument(
        "--duration", type=float, default=None,
        help="stop after N seconds (default: run until interrupted)",
    )
    p_rep_join.set_defaults(func=cmd_replicate)
    p_rep_status = rep_sub.add_parser(
        "status", help="local replication position of this deployment"
    )
    p_rep_status.set_defaults(func=cmd_replicate)
    p_rep_promote = rep_sub.add_parser(
        "promote", help="heal a replica directory into a writable primary"
    )
    p_rep_promote.set_defaults(func=cmd_replicate)

    p_maint = sub.add_parser("maintenance", help="housekeeping tasks")
    maint_sub = p_maint.add_subparsers(dest="maintenance_command", required=True)
    p_maint_prune = maint_sub.add_parser(
        "prune", help="sweep MVCC version chains up to the horizon"
    )
    p_maint_prune.set_defaults(func=cmd_maintenance)

    p_serve = sub.add_parser("serve", help="run the web portal")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--workers", type=int, default=8,
        help="request worker threads (default 8)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="concurrent requests before shedding 503s (default 64)",
    )
    p_serve.add_argument(
        "--keep-alive", type=float, default=5.0, metavar="SECONDS",
        help="idle keep-alive timeout (default 5s)",
    )
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - direct execution
    sys.exit(main())
