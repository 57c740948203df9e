"""The durable job queue: leases, redelivery, idempotency, backpressure.

These tests drive :class:`~repro.tasks.queue.JobQueue` directly on a
:class:`ManualClock`, so every lease expiry and backoff wake-up is a
deterministic ``clock.advance`` instead of a sleep.
"""

import datetime as dt

import pytest

from repro.errors import LeaseLost, QueueSaturated, StateError
from repro.orm import Registry
from repro.resilience.policies import RetryPolicy
from repro.storage import Database
from repro.tasks.queue import JOB_STATES, JobQueue


@pytest.fixture
def queue(clock) -> JobQueue:
    return JobQueue(Registry(Database()), clock=clock)


class TestEnqueueClaimAck:
    def test_happy_path(self, queue):
        job = queue.enqueue("import", {"file": "a.raw"})
        assert job.state == "pending"

        (claimed,) = queue.claim("w1", lease_seconds=30.0)
        assert claimed.id == job.id
        assert claimed.state == "leased"
        assert claimed.attempts == 1

        done = queue.ack(job.id, "w1", {"resources": 1})
        assert done.state == "done"
        assert done.result == {"resources": 1}
        (attempt,) = queue.attempts_of(job.id)
        assert attempt.outcome == "done"
        assert attempt.worker == "w1"

    def test_priority_then_fifo_within_band(self, queue):
        low = queue.enqueue("t", priority=0)
        first_high = queue.enqueue("t", priority=5)
        second_high = queue.enqueue("t", priority=5)

        claimed = queue.claim("w1", limit=3)
        assert [j.id for j in claimed] == [first_high.id, second_high.id, low.id]

    def test_delayed_job_is_not_claimable_early(self, queue, clock):
        job = queue.enqueue("t", delay_seconds=60.0)
        assert queue.claim("w1") == []
        clock.advance(seconds=61)
        (claimed,) = queue.claim("w1")
        assert claimed.id == job.id

    def test_claim_filters_job_types(self, queue):
        queue.enqueue("import")
        run = queue.enqueue("run")
        (claimed,) = queue.claim("w1", limit=5, job_types={"run"})
        assert claimed.id == run.id

    def test_ack_by_non_owner_is_rejected(self, queue):
        job = queue.enqueue("t")
        queue.claim("w1")
        with pytest.raises(LeaseLost):
            queue.ack(job.id, "impostor")


class TestVisibilityTimeout:
    def test_expired_lease_redelivers_to_another_worker(self, queue, clock):
        job = queue.enqueue("t")
        queue.claim("w1", lease_seconds=30.0)

        clock.advance(seconds=31)
        (redelivered,) = queue.claim("w2", lease_seconds=30.0)
        assert redelivered.id == job.id
        assert redelivered.leased_by == "w2"
        assert redelivered.attempts == 2
        assert queue.status()["lease_expirations"] == 1

        outcomes = [a.outcome for a in queue.attempts_of(job.id)]
        assert outcomes == ["lease_expired", "running"]

    def test_loser_cannot_ack_after_redelivery(self, queue, clock):
        job = queue.enqueue("t")
        queue.claim("w1", lease_seconds=30.0)
        clock.advance(seconds=31)
        queue.claim("w2", lease_seconds=30.0)

        with pytest.raises(LeaseLost):
            queue.ack(job.id, "w1")
        # The winner's ack is unaffected.
        assert queue.ack(job.id, "w2").state == "done"

    def test_heartbeat_keeps_long_job_owned(self, queue, clock):
        job = queue.enqueue("t")
        queue.claim("w1", lease_seconds=30.0)

        clock.advance(seconds=20)
        queue.heartbeat(job.id, "w1", extend_seconds=30.0)
        clock.advance(seconds=20)  # 40s in: past the original lease

        assert queue.claim("w2") == []
        assert queue.ack(job.id, "w1").state == "done"
        assert queue.status()["lease_expirations"] == 0

    def test_explicit_expiry_sweep(self, queue, clock):
        queue.enqueue("t")
        queue.enqueue("t")
        queue.claim("w1", limit=2, lease_seconds=10.0)
        assert queue.expire_leases() == 0
        clock.advance(seconds=11)
        assert queue.expire_leases() == 2
        assert {j.state for j in queue.list()} == {"pending"}


class TestIdempotency:
    def test_duplicate_enqueue_returns_existing_job(self, queue):
        first = queue.enqueue("import", {"n": 1}, idempotency_key="import:k1")
        second = queue.enqueue("import", {"n": 2}, idempotency_key="import:k1")
        assert second.id == first.id
        assert second.payload == {"n": 1}
        assert queue.status()["duplicates_suppressed"] == 1
        assert len(queue.list()) == 1

    def test_suppression_holds_while_leased_or_done(self, queue):
        job = queue.enqueue("t", idempotency_key="k")
        queue.claim("w1")
        assert queue.enqueue("t", idempotency_key="k").id == job.id
        queue.ack(job.id, "w1")
        assert queue.enqueue("t", idempotency_key="k").id == job.id

    def test_dead_job_does_not_block_a_fresh_enqueue(self, queue):
        job = queue.enqueue("t", idempotency_key="k", max_attempts=1)
        queue.claim("w1")
        queue.nack(job.id, "w1", "boom", retryable=False)
        fresh = queue.enqueue("t", idempotency_key="k")
        assert fresh.id != job.id
        assert fresh.state == "pending"


class TestRetryAndDead:
    def test_nack_parks_in_retry_wait_until_backoff(self, queue, clock):
        job = queue.enqueue("t")
        queue.claim("w1")
        parked = queue.nack(job.id, "w1", "flaky")
        assert parked.state == "retry_wait"
        assert parked.error == "flaky"
        assert queue.claim("w2") == []  # backoff not elapsed

        clock.advance(seconds=60)  # > max_delay, always past the wake time
        (redelivered,) = queue.claim("w2")
        assert redelivered.id == job.id
        assert redelivered.attempts == 2

    def test_exhausted_attempts_go_dead(self, queue, clock):
        job = queue.enqueue("t", max_attempts=2)
        for attempt in range(2):
            clock.advance(seconds=60)
            (claimed,) = queue.claim("w1")
            assert claimed.attempts == attempt + 1
            queue.nack(job.id, "w1", "still broken")
        assert queue.get(job.id).state == "dead"
        assert queue.claim("w1") == []

    def test_non_retryable_goes_straight_to_dead(self, queue):
        job = queue.enqueue("t", max_attempts=5)
        queue.claim("w1")
        assert queue.nack(job.id, "w1", "bad request", retryable=False).state == "dead"

    def test_backoff_is_deterministic_per_attempt(self, clock):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, max_delay=60.0,
            multiplier=2.0, jitter=0.1, seed=7,
        )
        first = JobQueue(Registry(Database()), clock=clock, retry=policy)
        second = JobQueue(Registry(Database()), clock=clock, retry=policy)
        for queue in (first, second):
            job = queue.enqueue("t")
            queue.claim("w1")
            queue.nack(job.id, "w1", "boom")
        assert (
            first.get(1).available_at == second.get(1).available_at
        )
        # The wake time is the policy's one formula, keyed by job id.
        def wake(attempt):
            return clock.now() + dt.timedelta(seconds=policy.delay(attempt, key=1))

        assert first.get(1).available_at == wake(1)
        clock.advance(seconds=60)
        first.claim("w1")
        first.nack(1, "w1", "boom")
        assert first.get(1).available_at == wake(2)

    def test_retry_dead_revives_from_durable_payload(self, queue):
        job = queue.enqueue("t", {"file": "a.raw"}, max_attempts=1)
        queue.claim("w1")
        queue.nack(job.id, "w1", "boom")

        revived = queue.retry_dead(job.id)
        assert revived.state == "pending"
        assert revived.attempts == 0
        assert revived.error == ""
        assert revived.payload == {"file": "a.raw"}

    def test_retry_dead_rejects_live_jobs(self, queue):
        job = queue.enqueue("t")
        with pytest.raises(StateError):
            queue.retry_dead(job.id)

    def test_retry_all_dead(self, queue):
        for _ in range(3):
            job = queue.enqueue("t", max_attempts=1)
            queue.claim("w1")
            queue.nack(job.id, "w1", "boom")
        assert queue.retry_all_dead() == 3
        assert queue.status()["states"]["dead"] == 0


class TestBackpressure:
    def test_enqueue_sheds_at_max_depth(self, clock):
        queue = JobQueue(Registry(Database()), clock=clock, max_depth=2)
        queue.enqueue("t")
        queue.enqueue("t")
        with pytest.raises(QueueSaturated):
            queue.enqueue("t")
        assert queue.status()["shed"] == 1

    def test_completed_jobs_free_capacity(self, clock):
        queue = JobQueue(Registry(Database()), clock=clock, max_depth=1)
        job = queue.enqueue("t")
        queue.claim("w1")
        queue.ack(job.id, "w1")
        assert queue.enqueue("t").state == "pending"


class TestStatusAndWait:
    def test_status_counts_every_state(self, queue):
        done = queue.enqueue("a")
        queue.claim("w1")
        queue.ack(done.id, "w1")
        queue.enqueue("a")  # claimed next (FIFO) → leased
        queue.enqueue("b")  # stays pending
        queue.claim("w1")

        status = queue.status()
        assert set(status["states"]) == set(JOB_STATES)
        assert status["depth"] == 2
        assert status["states"] == {
            "pending": 1, "leased": 1, "done": 1, "retry_wait": 0, "dead": 0,
        }
        assert status["per_type"]["a"]["done"] == 1
        assert status["per_type"]["a"]["leased"] == 1
        assert status["per_type"]["b"]["pending"] == 1
        assert status["handlers"] == []

    def test_wait_returns_terminal_job(self, queue):
        job = queue.enqueue("t")
        queue.claim("w1")
        queue.ack(job.id, "w1")
        assert queue.wait(job.id).state == "done"

    def test_wait_timeout_returns_job_as_is(self, queue):
        job = queue.enqueue("t")
        waited = queue.wait(job.id, timeout=0)
        assert waited.state == "pending"
