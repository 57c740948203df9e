"""Resilience primitives: retry, timeout, breaker, faults, dead letters."""

import datetime as dt

import pytest

from repro.errors import (
    CircuitOpenError,
    FaultInjected,
    StateError,
    TimeoutExceeded,
)
from repro.facade import BFabric
from repro.resilience import (
    BreakerRegistry,
    CircuitBreaker,
    Fault,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    Timeout,
    WAL_SITES,
    active_plan,
    fault_point,
    inject,
    resilient,
)
from repro.resilience.dlq import handler_name
from repro.util.clock import ManualClock


class TestRetryPolicy:
    def test_delays_are_deterministic_for_a_seed(self):
        policy = RetryPolicy(max_attempts=5, seed=7)
        a = list(policy.delays())
        b = list(RetryPolicy(max_attempts=5, seed=7).delays())
        assert a == b
        assert len(a) == 4
        assert a == [policy.delay(n) for n in range(1, policy.max_attempts)]

    def test_different_seeds_differ(self):
        a = list(RetryPolicy(max_attempts=6, seed=1).delays())
        b = list(RetryPolicy(max_attempts=6, seed=2).delays())
        assert a != b

    def test_backoff_is_bounded_and_growing(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.1, max_delay=0.5,
            multiplier=2.0, jitter=0.0, seed=0,
        )
        delays = list(policy.delays())
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert max(delays) <= 0.5
        assert delays[-1] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_retryable_respects_retry_on(self):
        policy = RetryPolicy(retry_on=(OSError,))
        assert policy.retryable(OSError("disk"))
        assert not policy.retryable(ValueError("nope"))


class TestTimeout:
    def test_disabled_guard_passes_through(self):
        assert Timeout(None).call(lambda: 42) == 42
        assert Timeout(0).call(lambda: 42) == 42

    def test_fast_call_returns_value(self):
        assert Timeout(5.0).call(lambda x: x * 2, 21) == 42

    def test_error_propagates_from_worker_thread(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError):
            Timeout(5.0).call(boom)

    def test_overrun_raises_timeout_exceeded(self):
        import time

        with pytest.raises(TimeoutExceeded) as excinfo:
            Timeout(0.01).call(time.sleep, 0.5)
        assert excinfo.value.seconds == 0.01


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = ManualClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("cooldown", 30.0)
        return CircuitBreaker("ep", clock=clock, **kwargs), clock

    def test_opens_after_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert excinfo.value.endpoint == "ep"

    def test_half_open_after_cooldown_then_close_on_success(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(seconds=31)
        assert breaker.state == "half_open"
        breaker.allow()  # first probe admitted
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # probe slots taken
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(seconds=31)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(seconds=29)
        assert breaker.state == "open"
        clock.advance(seconds=2)
        assert breaker.state == "half_open"

    def test_success_resets_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.failures == 0
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_registry_shares_breakers_per_endpoint(self):
        registry = BreakerRegistry(clock=ManualClock(), failure_threshold=2)
        a = registry.breaker("rserve:host:6311")
        b = registry.breaker("rserve:host:6311")
        assert a is b
        registry.breaker("provider:lims")
        assert set(registry.states()) == {"rserve:host:6311", "provider:lims"}
        a.record_failure()
        a.record_failure()
        assert registry.states()["rserve:host:6311"] == "open"


class TestResilientWrapper:
    def test_retries_then_succeeds(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, base_delay=0.2, seed=0)
        )
        result = resilient(policy, sleep=slept.append)(flaky)()
        assert result == "done"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_exhaustion_reraises_original_error(self):
        def always_fails():
            raise OSError("persistent")

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0, jitter=0, seed=0)
        )
        with pytest.raises(OSError, match="persistent"):
            resilient(policy, sleep=lambda _s: None)(always_fails)()

    def test_non_retryable_error_propagates_immediately(self):
        calls = []

        def fails():
            calls.append(1)
            raise ValueError("bad input")

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=5, retry_on=(OSError,), seed=0)
        )
        with pytest.raises(ValueError):
            resilient(policy, sleep=lambda _s: None)(fails)()
        assert len(calls) == 1

    def test_give_up_on_skips_retry_and_breaker(self):
        breaker = CircuitBreaker(
            "ep", failure_threshold=1, clock=ManualClock()
        )
        calls = []

        def fails():
            calls.append(1)
            raise ValueError("fatal")

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=5, seed=0),
            breaker=breaker,
            give_up_on=(ValueError,),
        )
        with pytest.raises(ValueError):
            resilient(policy, sleep=lambda _s: None)(fails)()
        assert len(calls) == 1
        assert breaker.state == "closed"  # fatal errors don't trip it

    def test_fatal_error_frees_a_half_open_probe_slot(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            "ep", failure_threshold=1, cooldown=5.0, clock=clock
        )
        policy = ResiliencePolicy(breaker=breaker, give_up_on=(ValueError,))

        def call(error=None):
            if error is not None:
                raise error
            return "ok"

        guarded = resilient(policy)(call)
        with pytest.raises(OSError):
            guarded(OSError("endpoint down"))
        clock.advance(seconds=6)
        # A bad request lands on the half-open probe: it neither closes
        # nor re-opens the breaker, but it gives the probe slot back.
        with pytest.raises(ValueError):
            guarded(ValueError("bad request"))
        assert breaker.state == "half_open"
        assert breaker.failures == 1
        clock.advance(seconds=600)
        assert guarded() == "ok"
        assert breaker.state == "closed"

    def test_open_breaker_fails_fast_without_calling(self):
        clock = ManualClock()
        breaker = CircuitBreaker("ep", failure_threshold=1, clock=clock)
        breaker.record_failure()
        calls = []
        policy = ResiliencePolicy(breaker=breaker)
        with pytest.raises(CircuitOpenError):
            resilient(policy)(lambda: calls.append(1))()
        assert calls == []

    def test_passthrough_policy(self):
        assert resilient(ResiliencePolicy())(lambda x: x + 1)(1) == 2


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            Fault("no.such.site")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("wal.write", kind="meteor")

    def test_at_call_fires_exactly_once(self):
        plan = FaultPlan([Fault("connector.run", at_call=2)])
        with inject(plan):
            assert fault_point("connector.run") is None
            with pytest.raises(FaultInjected):
                fault_point("connector.run")
            assert fault_point("connector.run") is None
        assert plan.hits("connector.run") == 3
        assert plan.fired() == 1

    def test_times_bounds_probabilistic_firing(self):
        plan = FaultPlan(
            [Fault("connector.run", probability=1.0, times=2)], seed=1
        )
        fired = 0
        with inject(plan):
            for _ in range(5):
                try:
                    fault_point("connector.run")
                except FaultInjected:
                    fired += 1
        assert fired == 2

    def test_probability_is_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan(
                [Fault("connector.run", probability=0.5, times=-1)], seed=seed
            )
            outcomes = []
            with inject(plan):
                for _ in range(20):
                    try:
                        fault_point("connector.run")
                        outcomes.append(0)
                    except FaultInjected:
                        outcomes.append(1)
            return outcomes

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_custom_error_class(self):
        plan = FaultPlan([Fault("wal.append", at_call=1, error=OSError)])
        with inject(plan):
            with pytest.raises(OSError):
                fault_point("wal.append")

    def test_site_interpreted_kinds_return_action(self):
        plan = FaultPlan(
            [Fault("wal.write", kind="torn_write", at_call=1, fraction=0.25)]
        )
        with inject(plan):
            action = fault_point("wal.write")
        assert action is not None
        assert action.kind == "torn_write"
        assert action.fraction == 0.25

    def test_inject_uninstalls_on_exit(self):
        plan = FaultPlan([Fault("wal.append", at_call=1)])
        with inject(plan):
            assert active_plan() is plan
        assert active_plan() is None
        assert fault_point("wal.append") is None

    def test_wal_sites_are_registered(self):
        from repro.resilience import REGISTERED_SITES

        assert set(WAL_SITES) <= set(REGISTERED_SITES)


class TestDeadLetterQueue:
    @pytest.fixture
    def system(self):
        return BFabric(clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))

    def test_failed_delivery_is_dead_lettered(self, system):
        def bad_handler(**_kw):
            raise RuntimeError("consumer down")

        system.events.subscribe("custom.event", bad_handler)
        system.events.publish("custom.event", value=7)
        letters = system.dlq.list()
        assert len(letters) == 1
        letter = letters[0]
        assert letter.event == "custom.event"
        assert letter.handler == handler_name(bad_handler)
        assert letter.payload == {"value": 7}
        assert "consumer down" in letter.error
        assert system.dlq.pending_count() == 1

    def test_retry_succeeds_after_fix(self, system):
        received = []
        broken = [True]

        def handler(**kw):
            if broken[0]:
                raise RuntimeError("still down")
            received.append(kw)

        system.events.subscribe("custom.event", handler)
        system.events.publish("custom.event", value=1)
        letter = system.dlq.list()[0]
        # First retry: handler still broken — attempts bumped, stays dead.
        with pytest.raises(RuntimeError):
            system.dlq.retry(letter.id, system.events)
        assert system.dlq.get(letter.id).attempts == 2
        broken[0] = False
        updated = system.dlq.retry(letter.id, system.events)
        assert updated.status == "retried"
        assert received == [{"value": 1}]
        assert system.dlq.pending_count() == 0
        with pytest.raises(StateError):
            system.dlq.retry(letter.id, system.events)

    def test_retry_all(self, system):
        seen = []

        def sometimes(**kw):
            if kw.get("n", 0) == 2 and not seen:
                pass
            raise RuntimeError("down")

        system.events.subscribe("custom.event", sometimes)
        system.events.publish("custom.event", n=1)
        system.events.publish("custom.event", n=2)
        system.events.unsubscribe("custom.event", sometimes)

        def fixed(**kw):
            seen.append(kw["n"])

        fixed.__qualname__ = sometimes.__qualname__
        system.events.subscribe("custom.event", fixed)
        succeeded, failed = system.dlq.retry_all(system.events)
        assert (succeeded, failed) == (2, 0)
        assert sorted(seen) == [1, 2]

    def test_discard(self, system):
        system.events.subscribe(
            "custom.event", lambda **_kw: (_ for _ in ()).throw(ValueError())
        )
        system.events.publish("custom.event")
        letter = system.dlq.list()[0]
        discarded = system.dlq.discard(letter.id)
        assert discarded.status == "discarded"
        assert system.dlq.pending_count() == 0
        assert system.dlq.list(status=None)[0].status == "discarded"

    def test_entity_payload_rehydrates_from_fresh_process(self, system):
        admin = system.bootstrap()
        project = system.projects.create(admin, "P1")

        def bad(**_kw):
            raise RuntimeError("down")

        system.events.subscribe("custom.event", bad)
        system.events.publish("custom.event", project=project, count=3)
        letter = system.dlq.list()[0]
        # Simulate a fresh process: drop the live-payload cache so the
        # persisted JSON encoding must be rehydrated.
        system.dlq._live.clear()
        decoded = system.dlq._decode_payload(letter.payload)
        assert decoded["count"] == 3
        assert decoded["project"].id == project.id
        assert decoded["project"].name == "P1"

    def test_missing_handler_is_reported(self, system):
        def gone(**_kw):
            raise RuntimeError("down")

        system.events.subscribe("custom.event", gone)
        system.events.publish("custom.event")
        system.events.unsubscribe("custom.event", gone)
        letter = system.dlq.list()[0]
        with pytest.raises(StateError, match="no subscriber"):
            system.dlq.retry(letter.id, system.events)
