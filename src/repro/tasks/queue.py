"""The durable job queue: at-least-once background work, stored in the database.

Imports and application runs used to execute inline in the caller's
thread, so a crash mid-import relied entirely on call-site compensation.
The queue moves that work onto a ``job`` table **in the database
itself** — it inherits WAL durability, MVCC introspection and
replication for free — and re-expresses the resilience policies as
queue state transitions::

    pending ──claim──▶ leased ──ack──▶ done
       ▲                 │
       │ lease expired   ├──nack (attempts left)──▶ retry_wait ──due──▶ pending
       └─────────────────┘                │
                                          └──nack (exhausted)──▶ dead ──retry_dead──▶ pending

Semantics:

* **Leases (visibility timeout).**  :meth:`JobQueue.claim` marks a job
  ``leased`` until ``lease_expires_at``; a worker that dies simply stops
  heartbeating and the job reappears as ``pending`` once the lease
  expires — at-least-once delivery with crash-safe redelivery and no
  coordinator process.  Long jobs stay owned via :meth:`heartbeat`.
* **Idempotency keys.**  Enqueueing with a key already held by a live
  (non-dead) job returns that job instead of a duplicate; handlers use
  the same key to make redelivered work effects-once.
* **Backoff as schedule.**  A failed attempt does not sleep anywhere —
  the job parks in ``retry_wait`` with a deterministic, jittered wake
  time (:meth:`~repro.resilience.policies.RetryPolicy.delay`, keyed by
  job id) and the next claim after ``available_at`` redelivers it.
* **Dead jobs stay in the job table.**  Exhausted jobs flip to ``dead``
  with their payload intact, so ``repro queue retry`` revives them after
  a restart — the payload lives in the database, not in a process-local
  cache.  The dead-letter queue is for event deliveries only.
* **Backpressure.**  ``max_depth`` bounds the runnable backlog;
  :meth:`enqueue` sheds with :class:`~repro.errors.QueueSaturated` once
  producers outrun the workers.

Fault sites ``queue.claim``, ``queue.ack`` and ``queue.heartbeat`` let
the torture driver kill a worker at every point of the lease protocol
(see :func:`repro.resilience.torture.run_ingest_torture`).
"""

from __future__ import annotations

import datetime as _dt
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    LeaseLost,
    QueueSaturated,
    StateError,
    TransactionError,
)
from repro.orm import (
    DateTimeField,
    IntField,
    JsonField,
    Model,
    Registry,
    TextField,
)
from repro.resilience.faults import fault_point
from repro.resilience.policies import RetryPolicy
from repro.util.clock import Clock, SystemClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

JOB_STATES = ("pending", "leased", "done", "retry_wait", "dead")


def encode_principal(principal: Any) -> dict[str, Any]:
    """JSON-safe form of a Principal for job payloads."""
    return {
        "user_id": principal.user_id,
        "login": principal.login,
        "role": principal.role.value,
    }


def decode_principal(data: dict[str, Any]) -> Any:
    """Rebuild a Principal from :func:`encode_principal` output."""
    from repro.security.principals import Principal, Role

    return Principal(
        user_id=data["user_id"], login=data["login"], role=Role(data["role"])
    )

#: States a job can still run from (counted against ``max_depth``).
RUNNABLE_STATES = ("pending", "leased", "retry_wait")

#: Backoff between redelivery attempts; deterministic per (job, attempt).
DEFAULT_RETRY = RetryPolicy(
    max_attempts=5, base_delay=0.2, max_delay=30.0, multiplier=2.0,
    jitter=0.1, seed=2010,
)


class Job(Model):
    """One unit of background work, durable across process restarts."""

    __table__ = "job"
    id = IntField(primary_key=True)
    job_type = TextField(nullable=False, index=True)
    state = TextField(
        nullable=False, default="pending", check=lambda v: v in JOB_STATES
    )
    priority = IntField(default=0)
    #: Concurrency-limit key, e.g. ``provider:instrument-a`` — the worker
    #: pool caps in-flight jobs per channel (per-provider rate limiting).
    channel = TextField(default="")
    payload = JsonField(default=dict)
    idempotency_key = TextField(default="", index=True)
    attempts = IntField(default=0)
    max_attempts = IntField(default=5)
    #: Not claimable before this time (enqueue time, schedule, or the
    #: retry_wait wake time).
    available_at = DateTimeField()
    lease_expires_at = DateTimeField()
    leased_by = TextField(default="")
    result = JsonField(default=dict)
    error = TextField(default="")
    #: The enqueuer's trace context; worker spans join this trace.
    trace = JsonField(default=dict)
    enqueued_at = DateTimeField()
    updated_at = DateTimeField()
    __indexes__ = ["state", ("state", "job_type")]


class JobAttempt(Model):
    """One delivery of one job — the queue's introspection trail."""

    __table__ = "job_attempt"
    id = IntField(primary_key=True)
    job_id = IntField(nullable=False, index=True, foreign_key="job.id")
    number = IntField(default=1)
    worker = TextField(default="")
    started_at = DateTimeField()
    finished_at = DateTimeField()
    #: running | done | retry_wait | dead | lease_expired
    outcome = TextField(default="running")
    error = TextField(default="")
    __indexes__ = [("job_id", "number")]


def queue_models() -> list[type[Model]]:
    return [Job, JobAttempt]


class JobQueue:
    """Durable, priority, at-least-once work queue over the ``job`` table.

    Thread-safe: one in-process lock serializes state transitions (the
    database rows are what survives a crash; the lock only arbitrates
    between this process's workers).  A transition is one transaction
    and takes the database's writer lock before the queue lock, as a
    request that enqueues inside its own transaction does, so no two
    threads each hold the lock the other waits for.  Handlers are
    registered here so every :class:`~repro.tasks.workers.WorkerPool` —
    including the throwaway pool behind ``repro queue drain`` — sees
    the same table.
    """

    def __init__(
        self,
        registry: Registry,
        *,
        clock: Clock | None = None,
        obs: "Observability | None" = None,
        retry: RetryPolicy = DEFAULT_RETRY,
        max_depth: int | None = None,
    ):
        self._registry = registry
        self._db = registry.database
        self._jobs = registry.register(Job)
        self._attempts = registry.register(JobAttempt)
        self._clock = clock or SystemClock()
        self._obs = obs
        self._retry = retry
        self._max_depth = max_depth
        self._cond = threading.Condition(threading.RLock())
        self._handlers: dict[str, Callable[[Job], Any]] = {}
        self._lease_lost_handlers: dict[str, Callable[[Job, Any], None]] = {}
        self._pools: list[Any] = []
        self._lease_expirations = 0
        self._duplicates_suppressed = 0
        self._shed = 0
        #: job id → monotonic enqueue instant, for claim-to-start latency
        #: (in-process measurement; survives nothing, costs nothing).
        self._enqueued_mono: dict[int, float] = {}
        self._claim_latency = deque(maxlen=4096)
        self._m_enqueued = self._m_completed = self._m_expired = None
        self._m_shed = self._m_duplicates = self._h_claim = None
        if obs is not None:
            self._m_enqueued = obs.metrics.counter(
                "queue_jobs_enqueued_total", "Jobs accepted by the queue",
                labels=("job_type",),
            )
            self._m_completed = obs.metrics.counter(
                "queue_jobs_completed_total",
                "Jobs reaching a terminal or retry transition",
                labels=("job_type", "outcome"),
            )
            self._m_expired = obs.metrics.counter(
                "queue_lease_expired_total",
                "Leases that expired and made their job claimable again",
            )
            self._m_shed = obs.metrics.counter(
                "queue_shed_total",
                "Enqueues rejected because the backlog hit max_depth",
            )
            self._m_duplicates = obs.metrics.counter(
                "queue_duplicates_suppressed_total",
                "Enqueues answered by an existing job (idempotency key)",
            )
            self._h_claim = obs.metrics.histogram(
                "queue_claim_delay_seconds",
                "Delay between a job becoming available and its claim",
            )

    # -- handler registry --------------------------------------------------------

    def register_handler(
        self,
        job_type: str,
        handler: Callable[[Job], Any],
        *,
        on_lease_lost: Callable[[Job, Any], None] | None = None,
    ) -> None:
        """Map *job_type* to the callable a worker runs.

        *on_lease_lost* is the loser's compensation: when a worker
        finishes a job whose lease was lost meanwhile (it was redelivered
        to someone else), the hook gets ``(job, result)`` to discard the
        now-duplicate effects.
        """
        self._handlers[job_type] = handler
        if on_lease_lost is not None:
            self._lease_lost_handlers[job_type] = on_lease_lost

    def handler(self, job_type: str) -> Callable[[Job], Any] | None:
        return self._handlers.get(job_type)

    def lease_lost_handler(
        self, job_type: str
    ) -> Callable[[Job, Any], None] | None:
        return self._lease_lost_handlers.get(job_type)

    def handler_types(self) -> list[str]:
        return sorted(self._handlers)

    # -- worker-pool registry ------------------------------------------------------

    def attach_pool(self, pool: Any) -> None:
        with self._cond:
            if pool not in self._pools:
                self._pools.append(pool)

    def detach_pool(self, pool: Any) -> None:
        with self._cond:
            if pool in self._pools:
                self._pools.remove(pool)

    def pools(self) -> list[Any]:
        with self._cond:
            return list(self._pools)

    def active_worker_count(self) -> int:
        return sum(pool.alive_count() for pool in self.pools())

    # -- enqueue --------------------------------------------------------------------

    def enqueue(
        self,
        job_type: str,
        payload: dict[str, Any] | None = None,
        *,
        priority: int = 0,
        channel: str = "",
        idempotency_key: str = "",
        max_attempts: int | None = None,
        delay_seconds: float = 0.0,
        trace: dict[str, str] | None = None,
    ) -> Job:
        """Add one job; returns the persisted row.

        With an *idempotency_key* held by an existing non-dead job the
        existing job is returned instead (duplicate suppression) — a
        client retry of "import these files" never imports them twice.
        Raises :class:`QueueSaturated` once the runnable backlog reaches
        ``max_depth`` (backpressure, not silent queueing).
        """
        if trace is None and self._obs is not None:
            context = self._obs.tracer.context()
            trace = context.to_dict() if context is not None else None
        with self._db.transaction(), self._cond:
            if idempotency_key:
                existing = self._live_job_for_key(idempotency_key)
                if existing is not None:
                    self._duplicates_suppressed += 1
                    if self._m_duplicates is not None:
                        self._m_duplicates.inc()
                    return existing
            if self._max_depth is not None:
                backlog = sum(
                    self._jobs.query().where("state", "=", s).count()
                    for s in RUNNABLE_STATES
                )
                if backlog >= self._max_depth:
                    self._shed += 1
                    if self._m_shed is not None:
                        self._m_shed.inc()
                    raise QueueSaturated(
                        f"queue backlog is {backlog} >= max_depth "
                        f"{self._max_depth}; retry later",
                        depth=backlog,
                    )
            now = self._clock.now()
            job = self._jobs.create(
                job_type=job_type,
                state="pending",
                priority=priority,
                channel=channel,
                payload=payload or {},
                idempotency_key=idempotency_key,
                attempts=0,
                max_attempts=(
                    max_attempts
                    if max_attempts is not None
                    else self._retry.max_attempts
                ),
                available_at=now + _dt.timedelta(seconds=delay_seconds),
                lease_expires_at=None,
                leased_by="",
                result={},
                error="",
                trace=trace or {},
                enqueued_at=now,
                updated_at=now,
            )
            self._enqueued_mono[job.id] = self._clock.monotonic()
            if self._m_enqueued is not None:
                self._m_enqueued.labels(job_type=job_type).inc()
            self._cond.notify_all()
            return job

    def _live_job_for_key(self, key: str) -> Job | None:
        for job in self._jobs.query().where("idempotency_key", "=", key).all():
            if job.state != "dead":
                return job
        return None

    # -- claiming (the lease protocol) ---------------------------------------------

    def claim(
        self,
        worker: str,
        *,
        limit: int = 1,
        lease_seconds: float = 30.0,
        job_types: "set[str] | None" = None,
        exclude_job_types: "set[str] | frozenset[str]" = frozenset(),
        exclude_channels: "set[str] | frozenset[str]" = frozenset(),
    ) -> list[Job]:
        """Atomically lease up to *limit* due jobs for *worker*.

        Expired leases are reclaimed first, so a killed worker's jobs
        become claimable the moment their visibility timeout passes.
        Ordering is priority (descending) then id — FIFO within a
        priority band.  The ``queue.claim`` fault site fires only when
        the claim would actually return work, so scripted kills land on
        a real delivery, not an idle poll.
        """
        with self._db.transaction(), self._cond:
            now = self._clock.now()
            self._expire_due_leases(now)
            candidates = [
                job
                for job in self._due_jobs(now)
                if (job_types is None or job.job_type in job_types)
                and job.job_type not in exclude_job_types
                and job.channel not in exclude_channels
            ]
            if not candidates:
                return []
            fault_point("queue.claim")
            candidates.sort(key=lambda j: (-j.priority, j.id))
            claimed: list[Job] = []
            expiry = now + _dt.timedelta(seconds=lease_seconds)
            for job in candidates[: max(1, limit)]:
                updated = self._jobs.update(
                    job.id,
                    state="leased",
                    leased_by=worker,
                    lease_expires_at=expiry,
                    attempts=job.attempts + 1,
                    updated_at=now,
                )
                self._attempts.create(
                    job_id=job.id,
                    number=updated.attempts,
                    worker=worker,
                    started_at=now,
                    finished_at=None,
                    outcome="running",
                    error="",
                )
                enqueued = self._enqueued_mono.pop(job.id, None)
                if enqueued is not None:
                    delay = max(0.0, self._clock.monotonic() - enqueued)
                    self._claim_latency.append(delay)
                    if self._h_claim is not None:
                        self._h_claim.observe(delay)
                claimed.append(updated)
            return claimed

    def _due_jobs(self, now: _dt.datetime) -> list[Job]:
        due: list[Job] = []
        for state in ("pending", "retry_wait"):
            due.extend(
                self._jobs.query()
                .where("state", "=", state)
                .where("available_at", "<=", now)
                .all()
            )
        return due

    def _expire_due_leases(self, now: _dt.datetime) -> int:
        expired = 0
        for job in self._jobs.query().where("state", "=", "leased").all():
            if job.lease_expires_at is None or job.lease_expires_at > now:
                continue
            self._jobs.update(
                job.id,
                state="pending",
                leased_by="",
                lease_expires_at=None,
                available_at=now,
                updated_at=now,
            )
            self._finish_attempts(job.id, now, "lease_expired", "")
            expired += 1
        if expired:
            self._lease_expirations += expired
            if self._m_expired is not None:
                self._m_expired.inc(expired)
            self._cond.notify_all()
        return expired

    def expire_leases(self) -> int:
        """Reclaim every expired lease now (claim also does this lazily).

        This is how the queue recovers from a process kill: the restarted
        deployment simply waits out the old leases — no fencing tokens,
        no session registry, nothing else to repair.
        """
        with self._db.transaction(), self._cond:
            return self._expire_due_leases(self._clock.now())

    def heartbeat(
        self, job_id: int, worker: str, *, extend_seconds: float = 30.0
    ) -> Job:
        """Extend a held lease; long jobs call this under the timeout."""
        with self._db.transaction(), self._cond:
            fault_point("queue.heartbeat")
            job = self._owned(job_id, worker)
            return self._jobs.update(
                job_id,
                lease_expires_at=self._clock.now()
                + _dt.timedelta(seconds=extend_seconds),
                updated_at=self._clock.now(),
            )

    # -- completion ------------------------------------------------------------------

    def ack(
        self, job_id: int, worker: str, result: dict[str, Any] | None = None
    ) -> Job:
        """Mark a leased job done.  The fault site fires *before* the
        durable update — a kill here leaves the job leased, lease expiry
        redelivers it, and the handler's idempotency key suppresses the
        double effect (the torn-ack scenario)."""
        with self._db.transaction(), self._cond:
            fault_point("queue.ack")
            self._owned(job_id, worker)
            now = self._clock.now()
            updated = self._jobs.update(
                job_id,
                state="done",
                result=result or {},
                leased_by="",
                lease_expires_at=None,
                error="",
                updated_at=now,
            )
            self._finish_attempts(job_id, now, "done", "")
            self._count_completion(updated.job_type, "done")
            self._cond.notify_all()
            return updated

    def nack(
        self,
        job_id: int,
        worker: str,
        error: str,
        *,
        retryable: bool = True,
    ) -> Job:
        """Record a failed attempt.

        Attempts remaining → ``retry_wait`` with a deterministic
        backoff wake time; exhausted (or not *retryable*) → ``dead``,
        where :meth:`retry_dead` can revive it.
        """
        with self._db.transaction(), self._cond:
            job = self._owned(job_id, worker)
            now = self._clock.now()
            if retryable and job.attempts < job.max_attempts:
                delay = self._retry.delay(job.attempts, key=job.id)
                updated = self._jobs.update(
                    job_id,
                    state="retry_wait",
                    leased_by="",
                    lease_expires_at=None,
                    available_at=now + _dt.timedelta(seconds=delay),
                    error=error,
                    updated_at=now,
                )
                self._finish_attempts(job_id, now, "retry_wait", error)
                self._count_completion(job.job_type, "retry_wait")
            else:
                updated = self._jobs.update(
                    job_id,
                    state="dead",
                    leased_by="",
                    lease_expires_at=None,
                    error=error,
                    updated_at=now,
                )
                self._finish_attempts(job_id, now, "dead", error)
                self._count_completion(job.job_type, "dead")
            self._cond.notify_all()
            return updated

    def _owned(self, job_id: int, worker: str) -> Job:
        job = self._jobs.get_or_none(job_id)
        if job is None:
            raise StateError(f"no job with id {job_id}")
        if job.state != "leased" or job.leased_by != worker:
            raise LeaseLost(
                f"job {job_id} is not leased by {worker!r} "
                f"(state={job.state}, leased_by={job.leased_by!r})",
                job_id=job_id,
            )
        return job

    def _finish_attempts(
        self, job_id: int, now: _dt.datetime, outcome: str, error: str
    ) -> None:
        for attempt in self._attempts.find(job_id=job_id, outcome="running"):
            self._attempts.update(
                attempt.id, finished_at=now, outcome=outcome, error=error
            )

    def _count_completion(self, job_type: str, outcome: str) -> None:
        if self._m_completed is not None:
            self._m_completed.labels(job_type=job_type, outcome=outcome).inc()

    # -- operator surface ---------------------------------------------------------------

    def get(self, job_id: int) -> Job:
        job = self._jobs.get_or_none(job_id)
        if job is None:
            raise StateError(f"no job with id {job_id}")
        return job

    def attempts_of(self, job_id: int) -> list[JobAttempt]:
        return sorted(self._attempts.find(job_id=job_id), key=lambda a: a.number)

    def list(self, *, state: str | None = None) -> list[Job]:
        query = self._jobs.query()
        if state is not None:
            query = query.where("state", "=", state)
        return query.order_by("id").all()

    def retry_dead(self, job_id: int) -> Job:
        """Re-run a dead job from its durable payload (operator replay)."""
        with self._db.transaction(), self._cond:
            job = self.get(job_id)
            if job.state != "dead":
                raise StateError(f"job {job_id} is {job.state}, not dead")
            now = self._clock.now()
            updated = self._jobs.update(
                job_id,
                state="pending",
                attempts=0,
                error="",
                leased_by="",
                lease_expires_at=None,
                available_at=now,
                updated_at=now,
            )
            self._enqueued_mono[job_id] = self._clock.monotonic()
            self._cond.notify_all()
            return updated

    def retry_all_dead(self) -> int:
        dead = self.list(state="dead")
        for job in dead:
            self.retry_dead(job.id)
        return len(dead)

    def wait(self, job_id: int, *, timeout: float | None = None) -> Job:
        """Block until the job is terminal (``done`` or ``dead``).

        Returns the job in whatever state it reached; on timeout it
        returns the job as-is — callers inspect ``state``.

        Refused (:class:`~repro.errors.TransactionError`) on a thread
        with an open transaction: the worker could not see the job's
        rows, nor take the writer lock that transaction may hold.
        Callers inside one run the work inline instead.
        """
        if self._db.in_transaction():
            raise TransactionError(
                "waiting on a queued job inside an open transaction"
            )
        deadline = (
            self._clock.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            while True:
                job = self.get(job_id)
                if job.state in ("done", "dead"):
                    return job
                remaining = 0.1
                if deadline is not None:
                    remaining = deadline - self._clock.monotonic()
                    if remaining <= 0:
                        return job
                # Bounded waits so manual clocks and lease expiry are
                # re-checked even with no notify in between.
                self._cond.wait(min(0.1, remaining))

    def wait_for_work(self, timeout: float) -> None:
        """Park an idle worker until an enqueue/transition notifies."""
        with self._cond:
            self._cond.wait(timeout)

    def has_runnable(self) -> bool:
        with self._cond:
            now = self._clock.now()
            if self._due_jobs(now):
                return True
            return self._jobs.query().where("state", "=", "leased").exists()

    def depth(self) -> int:
        """Runnable backlog: pending + leased + retry_wait."""
        return sum(
            self._jobs.query().where("state", "=", s).count()
            for s in RUNNABLE_STATES
        )

    def status(self) -> dict[str, Any]:
        """Everything the admin page / ``repro queue status`` shows."""
        with self._cond:
            states = {
                state: self._jobs.query().where("state", "=", state).count()
                for state in JOB_STATES
            }
            per_type: dict[str, dict[str, int]] = {}
            for job in self._jobs.all():
                per_type.setdefault(job.job_type, dict.fromkeys(JOB_STATES, 0))
                per_type[job.job_type][job.state] += 1
            return {
                "depth": sum(states[s] for s in RUNNABLE_STATES),
                "states": states,
                "per_type": per_type,
                "lease_expirations": self._lease_expirations,
                "duplicates_suppressed": self._duplicates_suppressed,
                "shed": self._shed,
                "active_workers": self.active_worker_count(),
                "handlers": self.handler_types(),
            }

    def claim_latency_samples(self) -> list[float]:
        """Recent claim-to-start delays, seconds (for the bench harness)."""
        with self._cond:
            return list(self._claim_latency)
