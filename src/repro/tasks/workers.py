"""Worker pool draining the durable job queue.

Each worker is a daemon thread in a claim → run → ack loop; a shared
heartbeat thread extends the leases of everything in flight so long
jobs survive their visibility timeout without per-worker timers.

Crash safety is the whole point of the design:

* A worker that dies mid-job (simulated by
  :class:`~repro.errors.CrashPoint` from a fault site) does **nothing**
  on the way down — no nack, no cleanup.  The job stays leased until
  the visibility timeout passes, then redelivers to a live worker.
  Handlers are therefore written to be redeliverable (idempotency keys
  plus compensation of any partial first attempt).
* A worker whose lease expired *while it was still running* (heartbeat
  thread killed, GC pause, …) gets :class:`~repro.errors.LeaseLost`
  from ``ack`` — the job was redelivered and someone else owns it now.
  The pool routes the loser's result to the handler's ``on_lease_lost``
  hook so the duplicate side effects are discarded, keeping the
  at-least-once queue effects-once at the domain layer.

Concurrency limits (``type_limits`` per job type, ``channel_limits`` per
channel — e.g. per instrument provider) are enforced at claim time: a
worker excludes saturated types/channels from its claim, so limits hold
across the whole pool without a central dispatcher.  In a limited pool
one worker at a time checks headroom, claims, and registers the job as
in flight.
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any

from repro.errors import (
    AccessDenied,
    CrashPoint,
    EntityNotFound,
    LeaseLost,
    ValidationError,
)
from repro.obs.tracing import TraceContext
from repro.resilience.faults import fault_point
from repro.tasks.queue import Job, JobQueue
from repro.util.clock import Clock, SystemClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Errors that mean "this job can never succeed" — straight to dead,
#: no retry_wait churn (bad request, not bad luck).
NON_RETRYABLE = (ValidationError, EntityNotFound, AccessDenied)


class WorkerPool:
    """N worker threads + one heartbeat thread over a :class:`JobQueue`.

    ``start()`` spawns the threads; ``stop(drain=True)`` finishes what
    is claimed then exits; ``kill()`` abandons the threads with leases
    intact — the restart path the torture driver exercises.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        workers: int = 2,
        lease_seconds: float = 30.0,
        claim_batch: int = 4,
        poll_interval: float = 0.05,
        heartbeat_interval: float | None = None,
        type_limits: dict[str, int] | None = None,
        channel_limits: dict[str, int] | None = None,
        name: str = "pool",
        clock: Clock | None = None,
        obs: "Observability | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._queue = queue
        self._worker_count = workers
        self._lease_seconds = lease_seconds
        self._claim_batch = max(1, claim_batch)
        self._poll_interval = poll_interval
        # A third of the lease keeps two heartbeats of slack before
        # expiry even if one is delayed by the GIL or a slow commit.
        self._heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.01, lease_seconds / 3.0)
        )
        self._type_limits = dict(type_limits or {})
        self._channel_limits = dict(channel_limits or {})
        self.name = name
        self._clock = clock or SystemClock()
        self._obs = obs
        self._lock = threading.Lock()
        #: Serializes claims of limited pools (see ``_claim_and_run``).
        self._claim_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._heartbeat_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._drain_mode = False
        #: worker name → Job currently being run (heartbeat targets).
        self._in_flight: dict[str, Job] = {}
        self._killed_workers = 0
        self._jobs_run = 0
        self._m_running = None
        if obs is not None:
            self._m_running = obs.metrics.gauge(
                "queue_workers_running",
                "Live worker threads per pool",
                labels=("pool",),
            ).labels(pool=name)

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self._lock:
            if self._threads:
                raise RuntimeError(f"pool {self.name!r} is already started")
            self._stop.clear()
            self._drain_mode = False
            for index in range(self._worker_count):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(f"{self.name}-w{index + 1}",),
                    name=f"{self.name}-w{index + 1}",
                    daemon=True,
                )
                self._threads.append(thread)
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"{self.name}-heartbeat",
                daemon=True,
            )
        self._queue.attach_pool(self)
        for thread in self._threads:
            thread.start()
        self._heartbeat_thread.start()
        self._update_running_gauge()
        return self

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> bool:
        """Stop the pool.

        With ``drain=True`` workers first finish the backlog (claimed
        *and* claimable) — the graceful-shutdown contract: an enqueue
        racing the stop either lands before the last claim and runs, or
        stays pending for the next pool.  Returns ``True`` if every
        thread exited within *timeout*.
        """
        with self._lock:
            threads = list(self._threads)
            heartbeat = self._heartbeat_thread
            self._drain_mode = drain
        self._stop.set()
        deadline = self._clock.monotonic() + timeout
        joined = True
        for thread in threads:
            remaining = max(0.0, deadline - self._clock.monotonic())
            thread.join(remaining)
            joined = joined and not thread.is_alive()
        if heartbeat is not None:
            heartbeat.join(max(0.0, deadline - self._clock.monotonic()))
            joined = joined and not heartbeat.is_alive()
        with self._lock:
            self._threads = []
            self._heartbeat_thread = None
        self._queue.detach_pool(self)
        self._update_running_gauge()
        return joined

    def drain(self, *, timeout: float = 30.0) -> bool:
        """Graceful shutdown: finish the backlog, then stop."""
        return self.stop(drain=True, timeout=timeout)

    def kill(self) -> None:
        """Abandon the pool without stopping work cleanly.

        Threads are daemons and will die when their current claim loop
        observes the stop flag; in-flight leases are left to expire —
        exactly what a SIGKILL leaves behind.  Used by the torture
        driver to simulate a process kill around a restart.
        """
        self._stop.set()
        with self._lock:
            self._threads = []
            self._heartbeat_thread = None
            self._in_flight.clear()
        self._queue.detach_pool(self)
        self._update_running_gauge()

    def is_running(self) -> bool:
        with self._lock:
            return any(t.is_alive() for t in self._threads)

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())

    @property
    def killed_workers(self) -> int:
        """Workers that died on a simulated kill (torture accounting)."""
        with self._lock:
            return self._killed_workers

    @property
    def jobs_run(self) -> int:
        with self._lock:
            return self._jobs_run

    # -- the worker loop ---------------------------------------------------------------

    def _worker_loop(self, worker: str) -> None:
        try:
            while not self._stop.is_set():
                ran = self._claim_and_run(worker)
                if not ran:
                    self._queue.wait_for_work(self._poll_interval)
            if self._drain_mode:
                # Graceful drain: keep claiming until the queue is dry.
                while self._claim_and_run(worker):
                    pass
        except CrashPoint:
            # Simulated kill: die exactly as SIGKILL would — no nack, no
            # cleanup; the lease expires and the job redelivers.
            with self._lock:
                self._killed_workers += 1
            self._in_flight.pop(worker, None)
            self._update_running_gauge()
            return
        finally:
            self._in_flight.pop(worker, None)

    def _claim_and_run(self, worker: str) -> bool:
        """Claim up to a batch and run it; ``False`` when nothing was due."""
        # Concurrency limits need headroom accounting per claimed job, so
        # limited pools claim one at a time, and the headroom check, the
        # claim and the in-flight registration are one step under the
        # claim lock: otherwise two workers could both see room for the
        # last slot and both take it.  Unlimited pools batch, unserialized.
        limited = bool(self._type_limits or self._channel_limits)
        with self._claim_lock if limited else nullcontext():
            exclude_types, exclude_channels = self._saturated()
            jobs = self._queue.claim(
                worker,
                limit=1 if limited else self._claim_batch,
                lease_seconds=self._lease_seconds,
                exclude_job_types=exclude_types,
                exclude_channels=exclude_channels,
            )
            if jobs:
                with self._lock:
                    self._in_flight[worker] = jobs[0]
        ran = False
        for job in jobs:
            self._run_job(worker, job)
            ran = True
        return ran

    def _saturated(self) -> tuple[set[str], set[str]]:
        """Job types / channels at their in-flight concurrency limit."""
        with self._lock:
            in_flight = list(self._in_flight.values())
        type_counts: dict[str, int] = {}
        channel_counts: dict[str, int] = {}
        for job in in_flight:
            type_counts[job.job_type] = type_counts.get(job.job_type, 0) + 1
            if job.channel:
                channel_counts[job.channel] = (
                    channel_counts.get(job.channel, 0) + 1
                )
        types = {
            t
            for t, cap in self._type_limits.items()
            if type_counts.get(t, 0) >= cap
        }
        channels = {
            c
            for c, cap in self._channel_limits.items()
            if channel_counts.get(c, 0) >= cap
        }
        return types, channels

    def _run_job(self, worker: str, job: Job) -> None:
        with self._lock:
            self._in_flight[worker] = job
        try:
            parent = TraceContext.from_dict(job.trace)
            if self._obs is not None:
                with self._obs.tracer.span(
                    "queue.job",
                    parent=parent,
                    job_id=job.id,
                    job_type=job.job_type,
                    attempt=job.attempts,
                    worker=worker,
                ) as span:
                    self._execute(worker, job, span)
            else:
                self._execute(worker, job, None)
        finally:
            with self._lock:
                self._in_flight.pop(worker, None)
                self._jobs_run += 1

    def _execute(self, worker: str, job: Job, span: Any) -> None:
        handler = self._queue.handler(job.job_type)
        result: Any = None
        try:
            fault_point("worker.run")
            if handler is None:
                raise ValidationError(
                    f"no handler registered for job type {job.job_type!r}"
                )
            result = handler(job)
            self._queue.ack(job.id, worker, result if isinstance(result, dict) else {})
            if span is not None:
                span.set(outcome="done")
        except CrashPoint:
            raise  # a simulated kill must not be softened into a nack
        except LeaseLost:
            # The visibility timeout fired mid-run and the job went to
            # someone else.  Hand the duplicate effects to the handler's
            # compensation hook; the queue row is the winner's problem.
            if span is not None:
                span.status = "error"
                span.set(outcome="lease_lost")
            hook = self._queue.lease_lost_handler(job.job_type)
            if hook is not None:
                try:
                    hook(job, result)
                except Exception:
                    pass  # compensation is best-effort; the winner re-runs
        except Exception as exc:
            retryable = not isinstance(exc, NON_RETRYABLE)
            if span is not None:
                span.status = "error"
                span.set(outcome="retry" if retryable else "dead")
            try:
                self._queue.nack(
                    job.id,
                    worker,
                    f"{type(exc).__name__}: {exc}",
                    retryable=retryable,
                )
            except LeaseLost:
                pass  # expired while failing: redelivery handles it

    # -- heartbeats -----------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        try:
            while not self._stop.wait(self._heartbeat_interval):
                self._beat()
            # During a drain, keep in-flight leases alive until the
            # workers finish their last claims (stop is set by now, so
            # the wait above no longer paces us).
            while self._drain_mode and self._has_in_flight():
                self._beat()
                _time.sleep(self._heartbeat_interval)
        except CrashPoint:
            with self._lock:
                self._killed_workers += 1
            return  # leases stop extending; expiry takes over

    def _has_in_flight(self) -> bool:
        with self._lock:
            return bool(self._in_flight)

    def _beat(self) -> None:
        with self._lock:
            flights = list(self._in_flight.items())
        for worker, job in flights:
            try:
                self._queue.heartbeat(
                    job.id, worker, extend_seconds=self._lease_seconds
                )
            except LeaseLost:
                pass  # the worker itself finds out at ack/nack time

    def _update_running_gauge(self) -> None:
        if self._m_running is not None:
            self._m_running.set(self.alive_count())
