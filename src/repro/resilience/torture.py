"""Crash-point torture: kill the database at every WAL fault site.

For each durability mode × WAL fault site the driver runs a small commit
workload, injects a :class:`~repro.errors.CrashPoint` at the site, then
*abandons* the database object without closing it — exactly what a
killed process leaves behind — reopens the directory, recovers, and
checks the recovery invariants.

The invariants encode commit *uncertainty* honestly.  A fault is
classified by where in the append path it fires:

``wal.append``
    Before any byte is written.  The commit rolls back in memory and
    the transaction must be **absent** after recovery.
``wal.write`` (torn), ``wal.after_write``, ``wal.after_fsync``
    The commit raised, but part or all of the record may have reached
    disk — the classic commit-uncertainty window.  The transaction is
    **uncertain**: recovery may surface it or not, and either answer is
    correct as long as the record that does appear is intact.

Checked after every crash:

* no lost committed rows — every commit that *returned successfully*
  is present after recovery (``committed ⊆ present``);
* no invented rows — everything present was either committed or
  uncertain (``present ⊆ committed ∪ uncertain``);
* no resurrected aborted rows — deliberately rolled-back transactions
  never reappear;
* ``verify_integrity`` reports a clean store;
* the healed log accepts new commits, and a second recovery over the
  same directory reproduces the identical row set.

Note on ``buffered`` durability: commits flush to the OS but skip
fsync, so the ``wal.after_fsync`` site is never reached there; the case
still runs (and recovery is still verified) with ``fired=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CrashPoint, FaultInjected
from repro.resilience.faults import (
    Fault,
    FaultPlan,
    INGEST_SITES,
    WAL_SITES,
    inject,
    install,
)
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.types import ColumnType

TABLE = "torture_rows"

#: One spec per durability family; group gets a short window so the
#: driver stays fast.
DEFAULT_MODES = ("always", "group:4:32", "buffered")


def _schema() -> TableSchema:
    return TableSchema(
        name=TABLE,
        columns=[
            Column("id", ColumnType.INT, primary_key=True),
            Column("value", ColumnType.TEXT, nullable=False),
        ],
    )


def _open(directory: Path, mode: str) -> Database:
    db = Database(directory, durability=mode)
    db.create_table(_schema())
    return db


def _deliberate_rollback(db: Database, row_id: int, aborted: list[int]) -> None:
    """A transaction the application itself abandons — must never recover."""
    txn = db.transaction()
    txn.insert(TABLE, {"id": row_id, "value": f"aborted-{row_id}"})
    txn.rollback()
    aborted.append(row_id)


@dataclass
class CaseResult:
    """Outcome of one (durability mode, fault site) crash case."""

    mode: str
    site: str
    fired: bool
    committed: list[int]
    uncertain: list[int]
    aborted: list[int]
    present: list[int]
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        fired = "crash" if self.fired else "site not reached"
        return (
            f"[{status}] {self.mode:>12} × {self.site:<15} ({fired}): "
            f"{len(self.committed)} committed, {len(self.uncertain)} uncertain, "
            f"{len(self.aborted)} aborted, {len(self.present)} recovered"
            + ("" if self.ok else f" — {'; '.join(self.problems)}")
        )


@dataclass
class TortureReport:
    """Every case of one torture run."""

    seed: int
    commits: int
    cases: list[CaseResult]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def failures(self) -> list[CaseResult]:
        return [case for case in self.cases if not case.ok]

    def summary(self) -> str:
        lines = [
            f"torture: seed={self.seed} commits={self.commits} "
            f"cases={len(self.cases)} failures={len(self.failures())}"
        ]
        lines.extend(case.describe() for case in self.cases)
        return "\n".join(lines)


def run_torture(
    base_dir: "str | Path",
    *,
    modes: "tuple[str, ...]" = DEFAULT_MODES,
    sites: "tuple[str, ...]" = WAL_SITES,
    commits: int = 6,
    seed: int = 2010,
) -> TortureReport:
    """Run every mode × site crash case under *base_dir*; never raises
    for an invariant violation — failures land in the report."""
    if commits < 3:
        raise ValueError("commits must be >= 3 so the fault step is reachable")
    base = Path(base_dir)
    cases: list[CaseResult] = []
    offset = 0
    for mode in modes:
        for site in sites:
            slug = f"{mode.replace(':', '_')}-{site.replace('.', '_')}"
            cases.append(
                run_case(
                    base / slug,
                    mode=mode,
                    site=site,
                    commits=commits,
                    seed=seed,
                    offset=offset,
                )
            )
            offset += 1
    return TortureReport(seed=seed, commits=commits, cases=cases)


def run_case(
    directory: "str | Path",
    *,
    mode: str,
    site: str,
    commits: int,
    seed: int,
    offset: int = 0,
) -> CaseResult:
    """One crash case: workload → injected kill → recovery → invariants."""
    directory = Path(directory)
    committed: list[int] = []
    uncertain: list[int] = []
    aborted: list[int] = []

    db = _open(directory, mode)
    next_id = 1
    # Warm-up: a durable baseline and a checkpoint, so recovery has to
    # combine snapshot load with WAL replay, then a deliberate rollback
    # that must never resurrect.
    for _ in range(2):
        db.insert(TABLE, {"id": next_id, "value": f"commit-{next_id}"})
        committed.append(next_id)
        next_id += 1
    db.checkpoint()
    _deliberate_rollback(db, 1000 + offset * 10, aborted)

    # The scripted kill: torn write at the write site (exercising
    # torn-tail healing), a CrashPoint everywhere else.  at_call is
    # seed-derived but always within the workload's reach.
    kind = "torn_write" if site == "wal.write" else "error"
    fault = (
        Fault(site, kind="torn_write", at_call=1 + (seed + offset) % 2, fraction=0.6)
        if kind == "torn_write"
        else Fault(site, kind="error", at_call=1 + (seed + offset) % 2, error=CrashPoint)
    )
    plan = FaultPlan([fault], seed=seed)
    with inject(plan):
        for step in range(commits):
            if step == 1:
                _deliberate_rollback(db, 1001 + offset * 10, aborted)
            row_id = next_id
            next_id += 1
            try:
                db.insert(TABLE, {"id": row_id, "value": f"commit-{row_id}"})
            except FaultInjected:
                # The "process" died mid-commit.  Pre-write faults are
                # clean aborts; everything later is uncertain.
                (aborted if site == "wal.append" else uncertain).append(row_id)
                break
            committed.append(row_id)
    fired = plan.fired() > 0
    # Crash simulation: drop the handle WITHOUT close() — close would
    # drain batches and fsync, defeating the whole exercise.
    del db

    problems: list[str] = []
    recovered = _open(directory, mode)
    recovered.recover()
    present = sorted(row["id"] for row in recovered.rows(TABLE))
    present_set = set(present)
    allowed = set(committed) | set(uncertain)

    lost = [i for i in committed if i not in present_set]
    if lost:
        problems.append(f"lost committed rows {lost}")
    invented = [i for i in present if i not in allowed]
    if invented:
        problems.append(f"recovered rows never committed {invented}")
    resurrected = [i for i in aborted if i in present_set]
    if resurrected:
        problems.append(f"resurrected aborted rows {resurrected}")
    integrity = recovered.verify_integrity()
    if integrity:
        problems.append(f"integrity violations {integrity}")

    # The healed log must accept appends again.
    epilogue_id = 900_000 + offset
    try:
        recovered.insert(TABLE, {"id": epilogue_id, "value": "post-recovery"})
    except Exception as exc:
        problems.append(f"post-recovery commit failed: {exc}")
    recovered.close()

    # A second recovery over the same directory must reproduce the
    # exact row set (replay is idempotent, the tail is truly healed).
    again = _open(directory, mode)
    again.recover()
    expected = sorted(present_set | {epilogue_id})
    second = sorted(row["id"] for row in again.rows(TABLE))
    if second != expected:
        problems.append(
            f"second recovery diverged: expected {expected}, got {second}"
        )
    again.close()

    return CaseResult(
        mode=mode,
        site=site,
        fired=fired,
        committed=committed,
        uncertain=uncertain,
        aborted=aborted,
        present=present,
        problems=problems,
    )


def run_replication_torture(
    base_dir: "str | Path",
    *,
    commits: int = 24,
    seed: int = 2010,
    replicas: int = 2,
    confirm_timeout: float = 5.0,
) -> TortureReport:
    """Kill the primary mid-stream, promote, verify nothing confirmed is lost.

    A primary publishes its WAL to *replicas* followers while a writer
    commits.  Each commit is classified the way a replication-aware
    client would see it:

    * **committed** — a replica confirmed applying it (``wait_for``
      returned) before the crash.  Because every replica applies a
      *prefix* of the primary's history and promotion picks the
      maximum-applied replica, one confirmation from *any* replica
      guarantees survival.
    * **uncertain** — the primary acknowledged it but no replica
      confirmed before the publisher was killed.  It raced the crash
      onto the wire: the promoted replica may or may not have it, and
      either answer is correct.

    The last quarter of the workload is deliberately left unconfirmed
    so some commits genuinely race the kill.  After abandoning the
    primary (no ``close()`` — a dead process flushes nothing), the
    most-caught-up replica drains, promotes, and must satisfy the same
    invariants as the crash-point torture: ``committed ⊆ present ⊆
    committed ∪ uncertain``, aborted transactions never resurrect,
    integrity is clean, and the promoted database accepts new commits.
    """
    from repro.errors import ReplicaLagExceeded
    from repro.replication import Replica, ReplicaSet, ReplicationPublisher

    if commits < 8:
        raise ValueError("commits must be >= 8 so the race window exists")
    base = Path(base_dir)
    committed: list[int] = []
    uncertain: list[int] = []
    aborted: list[int] = []
    problems: list[str] = []

    primary = _open(base / "primary", "always")
    publisher = ReplicationPublisher(primary).start()
    followers = [
        Replica(
            _open(base / f"replica-{i}", "always"),
            ("127.0.0.1", publisher.port),
            name=f"r{i}",
        ).start()
        for i in range(replicas)
    ]

    _deliberate_rollback(primary, 5000 + seed % 100, aborted)
    kill_at = commits - max(3, commits // 4)
    for step in range(commits):
        row_id = step + 1
        primary.insert(TABLE, {"id": row_id, "value": f"commit-{row_id}"})
        seq = primary.committed_seq
        if step >= kill_at:
            # Unconfirmed tail: these race the kill onto the wire.
            uncertain.append(row_id)
            continue
        confirmed = False
        for follower in followers:
            try:
                follower.wait_for(seq, timeout=confirm_timeout)
                confirmed = True
                break
            except ReplicaLagExceeded:
                continue
        (committed if confirmed else uncertain).append(row_id)
    publisher.kill()
    # Crash simulation: abandon the primary without close() — a killed
    # process drains and flushes nothing for its replicas' benefit.
    replica_set = ReplicaSet(primary, followers)
    del primary

    best = replica_set.promote(drain_timeout=2.0)
    promoted = best.db
    survivors = replica_set.replicas
    for follower in survivors:
        follower.stop()

    present = sorted(row["id"] for row in promoted.rows(TABLE))
    present_set = set(present)
    allowed = set(committed) | set(uncertain)
    lost = [i for i in committed if i not in present_set]
    if lost:
        problems.append(f"promoted replica lost confirmed commits {lost}")
    invented = [i for i in present if i not in allowed]
    if invented:
        problems.append(f"promoted replica has rows never committed {invented}")
    resurrected = [i for i in aborted if i in present_set]
    if resurrected:
        problems.append(f"promoted replica resurrected aborted rows {resurrected}")
    # The prefix property that makes single-confirmation safe: no
    # survivor may be ahead of the replica that was promoted.
    ahead = [f.name for f in survivors if f.applied_seq > best.applied_seq]
    if ahead:
        problems.append(f"promotion skipped more-caught-up replicas {ahead}")
    integrity = promoted.verify_integrity()
    if integrity:
        problems.append(f"integrity violations {integrity}")
    epilogue_id = 900_000 + seed % 100
    try:
        promoted.insert(TABLE, {"id": epilogue_id, "value": "post-promote"})
    except Exception as exc:
        problems.append(f"post-promote commit failed: {exc}")

    if problems:
        # Flight recorder: an invariant failure is exactly the state an
        # operator needs frozen — capture it before anything closes.
        from repro.obs import collect_debug_bundle, write_debug_bundle

        try:
            bundle = collect_debug_bundle(
                obs=promoted.obs,
                db=promoted,
                replicas=survivors,
                note=(
                    f"replication torture failure seed={seed}: "
                    + "; ".join(problems)
                ),
            )
            write_debug_bundle(bundle, base, prefix="torture-failure")
        except Exception:  # pragma: no cover - the recorder must not mask
            pass

    for follower in survivors:
        follower.db.close()
    promoted.close()

    case = CaseResult(
        mode="replication",
        site="kill_primary",
        fired=True,
        committed=committed,
        uncertain=uncertain,
        aborted=aborted,
        present=present,
        problems=problems,
    )
    return TortureReport(seed=seed, commits=commits, cases=[case])


#: The synthetic site label of the ingest case that also kills and
#: restarts the *database* (not just the workers) while leases are held.
INGEST_RESTART_SITE = "db.restart"


def run_ingest_torture(
    base_dir: "str | Path",
    *,
    sites: "tuple[str, ...]" = INGEST_SITES,
    jobs: int = 4,
    files_per_job: int = 3,
    seed: int = 2010,
    lease_seconds: float = 0.75,
    drain_timeout: float = 60.0,
) -> TortureReport:
    """Kill queue workers at every lease-protocol site mid-import.

    Each case enqueues *jobs* file imports as background jobs, starts a
    two-worker pool with a short visibility timeout, and injects a
    :class:`CrashPoint` at one fault site — the worker thread dies with
    no nack and no cleanup, exactly what ``kill -9`` leaves behind.  A
    fresh pool (or, in the final :data:`INGEST_RESTART_SITE` case, a
    fresh *process* over the reopened durable database) then drains the
    backlog and the driver asserts the at-least-once / effects-once
    contract:

    * **no lost jobs** — every enqueued job ends ``done``; expired
      leases were redelivered, nothing stayed ``leased``/``pending``;
    * **no double-applied effects** — exactly one workunit per import
      job key, exactly ``files_per_job`` resources on it, one active
      import workflow instance, and the global resource count equals
      ``jobs x files_per_job``;
    * **compensation invariants** — every stored file's bytes re-hash to
      the recorded checksum (no partial ingest survived), and no orphan
      store directory or resource row outlives its workunit.

    Site semantics exercised: ``queue.claim`` dies before any lease is
    written; ``worker.run`` dies after the claim, before the handler;
    ``dataimport.fetch``/``dataimport.ingest`` die mid-import leaving a
    partial workunit for redelivery to compensate; ``queue.ack`` is the
    torn-ack (work complete, job still leased — redelivery must resume,
    not re-import); ``queue.heartbeat`` kills the lease extender under a
    slowed fetch.  The restart case kills both workers at ``worker.run``
    and then abandons the whole facade without ``close()`` — the job
    table (leases included) must come back from WAL recovery and expire
    by wall clock.
    """
    if jobs < 1 or files_per_job < 1:
        raise ValueError("ingest torture needs at least one job and one file")
    base = Path(base_dir)
    cases: list[CaseResult] = []
    for offset, site in enumerate(sites):
        cases.append(
            _run_ingest_case(
                base / site.replace(".", "_"),
                site=site,
                restart=False,
                jobs=jobs,
                files_per_job=files_per_job,
                seed=seed,
                lease_seconds=lease_seconds,
                drain_timeout=drain_timeout,
                offset=offset,
            )
        )
    cases.append(
        _run_ingest_case(
            base / "db_restart",
            site=INGEST_RESTART_SITE,
            restart=True,
            jobs=jobs,
            files_per_job=files_per_job,
            seed=seed,
            lease_seconds=lease_seconds,
            drain_timeout=drain_timeout,
            offset=len(sites),
        )
    )
    return TortureReport(seed=seed, commits=jobs, cases=cases)


def _run_ingest_case(
    directory: Path,
    *,
    site: str,
    restart: bool,
    jobs: int,
    files_per_job: int,
    seed: int,
    lease_seconds: float,
    drain_timeout: float,
    offset: int,
) -> CaseResult:
    """One worker-kill case: enqueue → kill → (restart) → drain → check."""
    import time

    from repro.dataimport.filesystem import LocalFileSystemProvider
    from repro.dataimport.importer import IMPORT_JOB_KEY_PARAM, IMPORT_WORKFLOW
    from repro.dataimport.store import sha256_of
    from repro.facade import BFabric

    directory = Path(directory)
    problems: list[str] = []

    # Source corpus: deterministic bytes so checksums are reproducible.
    source = directory / "source"
    source.mkdir(parents=True, exist_ok=True)
    file_names = [f"run-{offset:02d}-{i:02d}.raw" for i in range(files_per_job)]
    checksums: dict[str, str] = {}
    for index, name in enumerate(file_names):
        (source / name).write_bytes(
            f"ingest torture seed={seed} site={site} file={name}\n".encode()
            * (24 + index)
        )
        checksums[name] = sha256_of(source / name)

    # The restart case needs a durable deployment to reopen; the others
    # run in memory (the queue semantics under test are identical).
    data_dir = directory / "system"
    provider_name = "torture-src"

    def open_system() -> "BFabric":
        return BFabric(
            data_dir if restart else None,
            durability="always" if restart else None,
        )

    def add_provider(system: "BFabric") -> None:
        system.imports.register_provider(
            LocalFileSystemProvider(provider_name, source)
        )

    system = open_system()
    add_provider(system)
    admin = system.bootstrap()
    project = system.projects.create(admin, f"ingest torture {site}")

    job_keys = [f"case{offset}-job{i}" for i in range(jobs)]
    job_ids = [
        system.imports.enqueue_import(
            admin,
            project.id,
            provider_name,
            file_names,
            workunit_name=f"torture import {key}",
            job_key=key,
        ).id
        for key in job_keys
    ]

    # The scripted kills.  Every site is hit once per job delivery, so
    # at_call 1 and 2 land in the two workers' first passes.  The
    # heartbeat only beats jobs that outlive its interval, so that case
    # slows every fetch down; the single heartbeat thread dying is the
    # whole kill (kills_expected=1).
    fault_site = "worker.run" if site == INGEST_RESTART_SITE else site
    kills_expected = 1 if site == "queue.heartbeat" else 2
    faults = [
        Fault(fault_site, kind="error", at_call=call, error=CrashPoint)
        for call in range(1, kills_expected + 1)
    ]
    if site == "queue.heartbeat":
        faults.append(
            Fault(
                "dataimport.fetch",
                kind="latency",
                probability=1.0,
                times=-1,
                latency_s=0.2,
            )
        )

    plan = FaultPlan(faults, seed=seed)
    install(plan)
    try:
        pool = system.start_workers(
            workers=2,
            lease_seconds=lease_seconds,
            name=f"torture-{offset}",
        )
        kill_deadline = time.monotonic() + 15.0
        while (
            pool.killed_workers < kills_expected
            and time.monotonic() < kill_deadline
        ):
            time.sleep(0.02)
    finally:
        install(None)
    killed = pool.killed_workers
    fired = killed >= kills_expected
    if not fired:
        problems.append(
            f"kill never landed at {fault_site}: {killed} of "
            f"{kills_expected} expected deaths"
        )

    if restart:
        # Let the dying workers actually exit before the directory is
        # reopened — a real SIGKILL stops all threads at once; here the
        # CrashPoint has to unwind each one.
        exit_deadline = time.monotonic() + 10.0
        while pool.alive_count() > 0 and time.monotonic() < exit_deadline:
            time.sleep(0.02)
        if pool.alive_count() > 0:
            problems.append("killed workers failed to exit before restart")
        # Crash simulation: abandon the facade WITHOUT close() — close
        # would drain pools and flush the WAL, defeating the exercise.
        # The job rows (leases included) must come back from recovery.
        system.queue.detach_pool(pool)
        del pool
        del system
        system = open_system()
        system.recover()
        add_provider(system)
        admin = system.bootstrap()
        system.start_workers(
            workers=2,
            lease_seconds=lease_seconds,
            name=f"torture-{offset}-reborn",
        )
    elif pool.alive_count() < 2:
        # Dead workers stay dead; a fresh pool takes over the backlog
        # (expired leases redeliver to it).
        pool.kill()
        system.start_workers(
            workers=2,
            lease_seconds=lease_seconds,
            name=f"torture-{offset}-reborn",
        )

    # Drain: every job must reach a terminal state inside the deadline.
    drain_deadline = time.monotonic() + drain_timeout
    for job_id in job_ids:
        remaining = max(0.1, drain_deadline - time.monotonic())
        system.queue.wait(job_id, timeout=remaining)
    system.stop_workers(drain=True, timeout=10.0)

    # -- invariants ------------------------------------------------------------

    present: list[int] = []
    stuck: list[str] = []
    for job_id in job_ids:
        job = system.queue.get(job_id)
        if job.state == "done":
            present.append(job_id)
        else:
            stuck.append(f"job {job_id} {job.state} ({job.error or 'no error'})")
    if stuck:
        problems.append("jobs lost or dead: " + "; ".join(stuck))
    status = system.queue.status()
    if status["depth"] != 0:
        problems.append(f"queue not drained: depth {status['depth']}")

    workunit_repo = system.registry.repository_for("workunit")
    all_workunits = workunit_repo.find(project_id=project.id)
    keyed: dict[str, list] = {}
    for workunit in all_workunits:
        key = (workunit.parameters or {}).get(IMPORT_JOB_KEY_PARAM)
        if key is not None:
            keyed.setdefault(key, []).append(workunit)
    stray = sorted(set(keyed) - set(job_keys))
    if stray:
        problems.append(f"workunits with unknown job keys {stray}")
    for key in job_keys:
        hits = keyed.get(key, [])
        if len(hits) != 1:
            problems.append(
                f"job {key!r} left {len(hits)} workunits (effects applied "
                f"{len(hits)} times, want exactly once)"
            )
            continue
        workunit = hits[0]
        resources = system.workunits.resources_of(admin, workunit.id)
        names = sorted(resource.name for resource in resources)
        if names != sorted(file_names):
            problems.append(
                f"workunit {workunit.id} ({key}) has resources {names}, "
                f"want {sorted(file_names)}"
            )
            continue
        for resource in resources:
            if resource.checksum != checksums[resource.name]:
                problems.append(
                    f"resource {resource.id} ({resource.name}) checksum "
                    "differs from the source file (partial ingest survived)"
                )
            elif not system.store.verify(resource.uri, resource.checksum):
                problems.append(
                    f"stored bytes for {resource.uri} missing or corrupt"
                )
        instances = [
            instance
            for instance in system.workflow.for_entity("workunit", workunit.id)
            if instance.definition == IMPORT_WORKFLOW
            and instance.status == "active"
        ]
        if len(instances) != 1:
            problems.append(
                f"workunit {workunit.id} ({key}) has {len(instances)} active "
                "import workflows, want exactly 1"
            )

    total_resources = system.db.count("data_resource")
    expected_resources = jobs * files_per_job
    if total_resources != expected_resources:
        problems.append(
            f"{total_resources} resource rows for {expected_resources} "
            "imported files (lost or double-applied effects)"
        )
    live_ids = {row["id"] for row in system.db.rows("workunit")}
    orphan_rows = [
        row["id"]
        for row in system.db.rows("data_resource")
        if row["workunit_id"] not in live_ids
    ]
    if orphan_rows:
        problems.append(f"resource rows orphaned by compensation {orphan_rows}")
    for child in sorted(system.store.root.iterdir()):
        if not (child.is_dir() and child.name.startswith("workunit_")):
            continue
        workunit_id = int(child.name.split("_", 1)[1])
        if workunit_id not in live_ids:
            problems.append(f"orphan store directory {child.name}")

    system.close()
    return CaseResult(
        mode="ingest+restart" if restart else "ingest",
        site=site,
        fired=fired,
        committed=list(job_ids),
        uncertain=[],
        aborted=[],
        present=present,
        problems=problems,
    )
