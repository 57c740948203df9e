"""Worker pools draining the durable queue: crash kills, heartbeats, drain.

These run real threads on the real clock, so timings are kept short
(sub-second leases) and every wait is bounded by ``queue.wait``.
"""

import threading
import time

import pytest

from repro.errors import CrashPoint, TransactionError, ValidationError
from repro.orm import Registry
from repro.resilience.faults import Fault, FaultPlan, install
from repro.resilience.policies import RetryPolicy
from repro.storage import Database
from repro.tasks.queue import JobQueue
from repro.tasks.workers import WorkerPool

#: Fast backoff so retry tests finish in milliseconds, jitter-free.
FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.02, max_delay=0.1,
    multiplier=2.0, jitter=0.0, seed=1,
)


@pytest.fixture
def queue() -> JobQueue:
    return JobQueue(Registry(Database()), retry=FAST_RETRY)


@pytest.fixture
def stop_pools():
    """Ensure every pool a test starts is stopped, pass or fail."""
    pools: list[WorkerPool] = []
    yield pools.append
    for pool in pools:
        pool.stop(drain=False, timeout=5.0)


class TestPoolBasics:
    def test_jobs_run_to_done(self, queue, stop_pools):
        seen: list[int] = []
        lock = threading.Lock()

        def handler(job):
            with lock:
                seen.append(job.payload["n"])
            return {"n": job.payload["n"]}

        queue.register_handler("t", handler)
        jobs = [queue.enqueue("t", {"n": n}) for n in range(5)]
        pool = WorkerPool(queue, workers=2, lease_seconds=5.0).start()
        stop_pools(pool)

        for job in jobs:
            assert queue.wait(job.id, timeout=10.0).state == "done"
        assert sorted(seen) == [0, 1, 2, 3, 4]
        assert queue.wait(jobs[3].id).result == {"n": 3}
        assert pool.jobs_run == 5

    def test_waiting_inside_an_open_transaction_is_refused(
        self, queue, stop_pools
    ):
        """The worker could not see a job enqueued in the waiter's open
        transaction, nor take the writer lock it holds: refused at
        once, not after the timeout."""
        queue.register_handler("t", lambda job: {})
        pool = WorkerPool(queue, workers=1, lease_seconds=5.0).start()
        stop_pools(pool)
        database = queue._db
        with database.transaction():
            job = queue.enqueue("t", {})
            started = time.monotonic()
            with pytest.raises(TransactionError):
                queue.wait(job.id, timeout=10.0)
            assert time.monotonic() - started < 1.0
        assert queue.wait(job.id, timeout=10.0).state == "done"

    def test_unknown_job_type_goes_dead(self, queue, stop_pools):
        queue.register_handler("known", lambda job: None)
        job = queue.enqueue("mystery")
        stop_pools(WorkerPool(queue, workers=1, lease_seconds=5.0).start())

        finished = queue.wait(job.id, timeout=10.0)
        assert finished.state == "dead"
        assert "no handler registered" in finished.error

    def test_start_twice_is_rejected(self, queue, stop_pools):
        pool = WorkerPool(queue, workers=1).start()
        stop_pools(pool)
        with pytest.raises(RuntimeError):
            pool.start()


class TestFailureHandling:
    def test_retryable_failure_retries_then_succeeds(self, queue, stop_pools):
        attempts = []

        def flaky(job):
            attempts.append(job.attempts)
            if len(attempts) == 1:
                raise OSError("transient")
            return {}

        queue.register_handler("t", flaky)
        job = queue.enqueue("t")
        stop_pools(WorkerPool(queue, workers=1, lease_seconds=5.0).start())

        assert queue.wait(job.id, timeout=10.0).state == "done"
        assert attempts == [1, 2]
        outcomes = [a.outcome for a in queue.attempts_of(job.id)]
        assert outcomes == ["retry_wait", "done"]

    def test_non_retryable_failure_goes_straight_dead(self, queue, stop_pools):
        def reject(job):
            raise ValidationError("bad request")

        queue.register_handler("t", reject)
        job = queue.enqueue("t")
        stop_pools(WorkerPool(queue, workers=1, lease_seconds=5.0).start())

        finished = queue.wait(job.id, timeout=10.0)
        assert finished.state == "dead"
        assert finished.attempts == 1  # no retry churn for a bad request


class TestCrashSafety:
    def test_killed_worker_job_redelivers_after_lease_expiry(
        self, queue, stop_pools
    ):
        runs: list[str] = []
        lock = threading.Lock()

        def handler(job):
            with lock:
                runs.append(job.leased_by)
            return {}

        queue.register_handler("t", handler)
        job = queue.enqueue("t")

        # First delivery dies mid-run with no nack — a simulated kill -9.
        install(FaultPlan(
            [Fault("worker.run", kind="error", at_call=1, error=CrashPoint)],
            seed=1,
        ))
        try:
            pool = WorkerPool(queue, workers=2, lease_seconds=0.3).start()
            stop_pools(pool)
            finished = queue.wait(job.id, timeout=10.0)
        finally:
            install(None)

        assert finished.state == "done"
        assert finished.attempts == 2  # kill, then redelivery
        assert pool.killed_workers == 1
        assert queue.status()["lease_expirations"] == 1
        assert len(runs) == 1  # the first delivery never reached the handler

    def test_heartbeat_keeps_long_job_under_short_lease(
        self, queue, stop_pools
    ):
        def slow(job):
            time.sleep(0.7)
            return {}

        queue.register_handler("t", slow)
        job = queue.enqueue("t")
        # Lease far shorter than the job: only heartbeats keep it owned.
        stop_pools(WorkerPool(queue, workers=1, lease_seconds=0.2).start())

        finished = queue.wait(job.id, timeout=10.0)
        assert finished.state == "done"
        assert finished.attempts == 1  # never redelivered
        assert queue.status()["lease_expirations"] == 0


class TestConcurrencyLimits:
    def test_type_limit_caps_in_flight_jobs(self, queue, stop_pools):
        lock = threading.Lock()
        running = 0
        peak = 0

        def tracked(job):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.05)
            with lock:
                running -= 1
            return {}

        queue.register_handler("capped", tracked)
        jobs = [queue.enqueue("capped") for _ in range(6)]
        pool = WorkerPool(
            queue, workers=4, lease_seconds=5.0, type_limits={"capped": 1}
        ).start()
        stop_pools(pool)

        for job in jobs:
            assert queue.wait(job.id, timeout=10.0).state == "done"
        assert peak == 1

    def test_type_limit_holds_when_claims_are_slow(self, queue, stop_pools):
        """Headroom check, claim and in-flight registration are one
        step: workers whose claims overlap cannot both take the last
        slot, however wide the gap around the claim."""
        lock = threading.Lock()
        running = 0
        peak = 0

        def tracked(job):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.1)
            with lock:
                running -= 1
            return {}

        real_claim = queue.claim

        def slow_claim(*args, **kwargs):
            time.sleep(0.03)  # after the headroom check
            jobs = real_claim(*args, **kwargs)
            time.sleep(0.03)  # before the job counts as in flight
            return jobs

        queue.claim = slow_claim
        queue.register_handler("capped", tracked)
        jobs = [queue.enqueue("capped") for _ in range(4)]
        pool = WorkerPool(
            queue, workers=4, lease_seconds=5.0, type_limits={"capped": 1}
        ).start()
        stop_pools(pool)

        for job in jobs:
            assert queue.wait(job.id, timeout=10.0).state == "done"
        assert peak == 1


class TestGracefulDrain:
    def test_drain_finishes_backlog_under_concurrent_enqueue(self, queue):
        done_payloads: list[int] = []
        lock = threading.Lock()

        def handler(job):
            with lock:
                done_payloads.append(job.payload["n"])
            time.sleep(0.002)
            return {}

        queue.register_handler("t", handler)
        for n in range(10):
            queue.enqueue("t", {"n": n})
        pool = WorkerPool(queue, workers=2, lease_seconds=5.0).start()

        produced = []

        def producer():
            # Keep enqueueing while the pool is draining; each of these
            # either lands before the last claim and runs, or stays
            # pending for the next pool — never lost, never leased.
            for n in range(10, 40):
                produced.append(queue.enqueue("t", {"n": n}).id)
                time.sleep(0.001)

        thread = threading.Thread(target=producer)
        thread.start()
        assert pool.stop(drain=True, timeout=30.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

        states = {job.id: job.state for job in queue.list()}
        assert set(states.values()) <= {"done", "pending"}  # nothing leased
        # The pre-drain backlog is part of the graceful contract.
        first_ten = [jid for jid, s in states.items() if jid <= 10]
        assert all(states[jid] == "done" for jid in first_ten)
        assert sorted(done_payloads)[:10] == list(range(10))

        # A fresh pool picks up whatever the race left pending.
        pending = [jid for jid, s in states.items() if s == "pending"]
        follower = WorkerPool(queue, workers=2, lease_seconds=5.0).start()
        try:
            for jid in pending:
                assert queue.wait(jid, timeout=10.0).state == "done"
        finally:
            follower.stop(drain=True, timeout=10.0)
        assert queue.depth() == 0


class TestFacadeIntegration:
    def test_import_runs_through_the_queue_when_workers_run(self, tmp_path):
        from repro.dataimport.filesystem import LocalFileSystemProvider
        from repro.facade import BFabric

        source = tmp_path / "src"
        source.mkdir()
        for name in ("a.raw", "b.raw"):
            (source / name).write_bytes(name.encode() * 64)

        system = BFabric()
        try:
            system.imports.register_provider(
                LocalFileSystemProvider("bench-src", source)
            )
            admin = system.bootstrap()
            project = system.projects.create(admin, "queue import")
            system.start_workers(workers=2, lease_seconds=5.0, name="test")
            assert system.queue.active_worker_count() > 0

            job = system.imports.enqueue_import(
                admin,
                project.id,
                "bench-src",
                ["a.raw", "b.raw"],
                workunit_name="queued import",
                job_key="facade-test",
            )
            assert system.queue.wait(job.id, timeout=30.0).state == "done"

            # Same job key → the same job, not a second import.
            again = system.imports.enqueue_import(
                admin,
                project.id,
                "bench-src",
                ["a.raw", "b.raw"],
                workunit_name="queued import",
                job_key="facade-test",
            )
            assert again.id == job.id
            assert system.db.count("data_resource") == 2
        finally:
            system.close()
