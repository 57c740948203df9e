"""Declarative fault-tolerance policies: retry, timeout, circuit breaker.

Every integration edge of B-Fabric talks to something that can fail —
instrument data providers, the (simulated) Rserve server, the local
filesystem.  Instead of scattering ``try/except``/``sleep`` loops, call
sites declare *policies* and wrap the flaky callable::

    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=4, base_delay=0.05, seed=2010),
        timeout=Timeout(2.0),
        breaker=breakers.breaker("rserve:rserve.local:6311"),
    )
    outcome = resilient(policy, site="connector.run", obs=obs)(run)(request)

Semantics:

* :class:`RetryPolicy` — exponential backoff with *deterministic* jitter
  (seeded; the same seed always produces the same delay sequence, so
  tests and the torture driver replay byte-identical schedules).
* :class:`Timeout` — bounds one attempt; the callable runs on a worker
  thread and :class:`~repro.errors.TimeoutExceeded` is raised when it
  overruns (the thread is abandoned — Python cannot kill it — which is
  acceptable for the I/O-bound calls this guards).
* :class:`CircuitBreaker` — the classic closed → open → half-open
  machine.  After ``failure_threshold`` consecutive failures the breaker
  opens and calls fail fast with :class:`~repro.errors.CircuitOpenError`;
  once ``cooldown`` seconds pass, a limited number of probe calls are
  let through (*half-open*) and a success closes the breaker again.

The wrapper emits ``resilience_retries_total``, ``resilience_gave_up_total``
and ``resilience_calls_total`` counters plus a ``resilience.call`` trace
span; breakers export the ``resilience_breaker_state`` gauge
(0 = closed, 1 = open, 2 = half-open) into the shared registry, which is
what makes outages visible on ``/admin/metrics``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import CircuitOpenError, TimeoutExceeded
from repro.util.clock import Clock, SystemClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Breaker states (gauge values exported per endpoint).
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"
_STATE_VALUES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts the first call too, so ``1`` means "no
    retries".  The delay after failed attempt *n* (1-based) is::

        min(max_delay, base_delay * multiplier**(n-1)) * (1 ± jitter)

    with the jitter drawn from ``random.Random(f"{seed}:{key}:{n}")`` —
    deterministic per (seed, key, attempt).  Only exceptions matching
    ``retry_on`` are retried; everything else propagates immediately.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int | None = None
    retry_on: tuple[type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retry_on)

    def delay(self, attempt: int, key: Any = None) -> float:
        """Seconds to wait after failed *attempt* (1-based) of *key*."""
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter:
            rng = random.Random(f"{self.seed}:{key}:{attempt}")
            delay *= 1 + self.jitter * (2 * rng.random() - 1)
        return max(0.0, delay)

    def delays(self) -> Iterator[float]:
        """The backoff schedule (``max_attempts - 1`` delays, seconds)."""
        for attempt in range(1, self.max_attempts):
            yield self.delay(attempt)


@dataclass(frozen=True)
class Timeout:
    """Per-attempt wall-clock bound; ``None``/``0`` disables the guard."""

    seconds: float | None = None

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run *fn*, raising :class:`TimeoutExceeded` on overrun."""
        if not self.seconds:
            return fn(*args, **kwargs)
        outcome: dict[str, Any] = {}
        done = threading.Event()

        def target() -> None:
            try:
                outcome["value"] = fn(*args, **kwargs)
            except BaseException as exc:  # re-raised on the caller's thread
                outcome["error"] = exc
            finally:
                done.set()

        worker = threading.Thread(
            target=target, name="resilience-timeout", daemon=True
        )
        worker.start()
        if not done.wait(self.seconds):
            raise TimeoutExceeded(
                f"call exceeded {self.seconds:g}s", seconds=self.seconds
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]


class CircuitBreaker:
    """Closed/open/half-open breaker guarding one endpoint.

    Thread-safe; time comes from the injected clock's monotonic source
    so tests drive state transitions with :class:`ManualClock.advance`.
    """

    def __init__(
        self,
        endpoint: str = "",
        *,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        half_open_probes: int = 1,
        clock: Clock | None = None,
        obs: "Observability | None" = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.endpoint = endpoint or "default"
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self._clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._gauge = None
        if obs is not None:
            self._gauge = obs.metrics.gauge(
                "resilience_breaker_state",
                "Circuit breaker state (0 closed, 1 open, 2 half-open)",
                labels=("endpoint",),
            ).labels(endpoint=self.endpoint)
            self._gauge.set(_STATE_VALUES[CLOSED])

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    @property
    def failures(self) -> int:
        with self._lock:
            return self._failures

    def _effective_state(self) -> str:
        """Current state, promoting open → half-open after the cooldown."""
        if self._state == OPEN:
            elapsed = self._clock.monotonic() - self._opened_at
            if elapsed >= self.cooldown:
                self._set_state(HALF_OPEN)
                self._probes_in_flight = 0
        return self._state

    def _set_state(self, state: str) -> None:
        self._state = state
        if self._gauge is not None:
            self._gauge.set(_STATE_VALUES[state])

    def allow(self) -> None:
        """Admit one call or raise :class:`CircuitOpenError`."""
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return
            if state == HALF_OPEN:
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    return
                raise CircuitOpenError(
                    f"breaker {self.endpoint!r} is half-open and its probe "
                    "slots are taken",
                    endpoint=self.endpoint,
                )
            remaining = self.cooldown - (self._clock.monotonic() - self._opened_at)
            raise CircuitOpenError(
                f"breaker {self.endpoint!r} is open "
                f"({max(0.0, remaining):.1f}s of cooldown left)",
                endpoint=self.endpoint,
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probes_in_flight = 0
            if self._state != CLOSED:
                self._set_state(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            state = self._effective_state()
            if state == HALF_OPEN:
                # The probe failed: back to a full cooldown.
                self._probes_in_flight = 0
                self._opened_at = self._clock.monotonic()
                self._set_state(OPEN)
                return
            self._failures += 1
            if state == CLOSED and self._failures >= self.failure_threshold:
                self._opened_at = self._clock.monotonic()
                self._set_state(OPEN)

    def release(self) -> None:
        """Free a half-open probe slot; state and failure count stay."""
        with self._lock:
            if self._state == HALF_OPEN and self._probes_in_flight:
                self._probes_in_flight -= 1

    def reset(self) -> None:
        """Force-close (admin action)."""
        self.record_success()


class BreakerRegistry:
    """Shared circuit breakers, one per endpoint name.

    The facade owns one registry so the importer and the application
    layer reuse the same breaker for the same endpoint, and the admin
    page can list every breaker's state.
    """

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        obs: "Observability | None" = None,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        half_open_probes: int = 1,
    ):
        self._clock = clock or SystemClock()
        self._obs = obs
        self._defaults = dict(
            failure_threshold=failure_threshold,
            cooldown=cooldown,
            half_open_probes=half_open_probes,
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, endpoint: str, **overrides: Any) -> CircuitBreaker:
        """The breaker guarding *endpoint* (created on first use)."""
        with self._lock:
            existing = self._breakers.get(endpoint)
            if existing is not None:
                return existing
            settings = {**self._defaults, **overrides}
            created = CircuitBreaker(
                endpoint, clock=self._clock, obs=self._obs, **settings
            )
            self._breakers[endpoint] = created
            return created

    def states(self) -> dict[str, str]:
        """Endpoint → state for the admin console."""
        with self._lock:
            breakers = dict(self._breakers)
        return {name: b.state for name, b in sorted(breakers.items())}


@dataclass(frozen=True)
class ResiliencePolicy:
    """A retry/timeout/breaker bundle applied by :func:`resilient`.

    Any part may be ``None``; ``resilient(ResiliencePolicy())`` is a
    transparent pass-through (plus call accounting).
    """

    retry: RetryPolicy | None = None
    timeout: Timeout | None = None
    breaker: CircuitBreaker | None = None
    give_up_on: tuple[type[BaseException], ...] = field(default_factory=tuple)

    def with_breaker(self, breaker: CircuitBreaker | None) -> "ResiliencePolicy":
        return ResiliencePolicy(
            retry=self.retry,
            timeout=self.timeout,
            breaker=breaker,
            give_up_on=self.give_up_on,
        )


def resilient(
    policy: ResiliencePolicy,
    *,
    site: str = "call",
    obs: "Observability | None" = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Wrap a callable with *policy*; returns a decorator.

    The wrapped call:

    1. asks the breaker for admission (fail fast while open);
    2. runs the attempt under the timeout guard;
    3. on a retryable failure, records it with the breaker, sleeps the
       policy's deterministic backoff delay, and tries again — unless
       the breaker opened meanwhile;
    4. when attempts are exhausted the *original* final exception is
       re-raised (so callers' ``except ProviderError`` /
       ``except ConnectorError`` clauses keep working) after counting
       ``resilience_gave_up_total``.

    Exceptions listed in ``policy.give_up_on`` are never retried even if
    ``retry_on`` matches, and are **not** counted against the breaker —
    they indicate a bad request, not a bad endpoint — though a half-open
    probe they land on gives its slot back.
    """
    timeout = policy.timeout or Timeout(None)
    retry = policy.retry
    m_calls = m_retries = m_gave_up = None
    if obs is not None:
        m_calls = obs.metrics.counter(
            "resilience_calls_total",
            "Calls entering a resilient() wrapper",
            labels=("site", "outcome"),
        )
        m_retries = obs.metrics.counter(
            "resilience_retries_total",
            "Retry attempts after a failed call",
            labels=("site",),
        ).labels(site=site)
        m_gave_up = obs.metrics.counter(
            "resilience_gave_up_total",
            "Calls that exhausted every retry attempt",
            labels=("site",),
        ).labels(site=site)

    def finish(span: Any, attempts: int, outcome: str) -> None:
        if m_calls is not None:
            m_calls.labels(site=site, outcome=outcome).inc()
        if span is not None:
            span.set(attempts=attempts, outcome=outcome)

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        def attempt_loop(span: Any, *args: Any, **kwargs: Any) -> Any:
            attempt = 0
            while True:
                attempt += 1
                if policy.breaker is not None:
                    try:
                        policy.breaker.allow()
                    except CircuitOpenError:
                        finish(span, attempt, "rejected")
                        raise
                try:
                    result = timeout.call(fn, *args, **kwargs)
                except BaseException as exc:
                    fatal = bool(policy.give_up_on) and isinstance(
                        exc, policy.give_up_on
                    )
                    if policy.breaker is not None:
                        if fatal:
                            policy.breaker.release()
                        else:
                            policy.breaker.record_failure()
                    retryable = (
                        not fatal
                        and retry is not None
                        and attempt < retry.max_attempts
                        and retry.retryable(exc)
                    )
                    if not retryable:
                        if m_gave_up is not None and attempt > 1:
                            m_gave_up.inc()
                        finish(span, attempt, "error")
                        raise
                    delay = retry.delay(attempt)
                    if m_retries is not None:
                        m_retries.inc()
                    if obs is not None:
                        obs.log.log(
                            "resilience.retry",
                            site=site,
                            attempt=attempt,
                            delay=delay,
                            error=str(exc),
                        )
                    if delay > 0:
                        sleep(delay)
                    continue
                if policy.breaker is not None:
                    policy.breaker.record_success()
                finish(span, attempt, "ok")
                return result

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            if obs is None:
                return attempt_loop(None, *args, **kwargs)
            with obs.tracer.span("resilience.call", site=site) as span:
                return attempt_loop(span, *args, **kwargs)

        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        wrapped.__doc__ = fn.__doc__
        return wrapped

    return decorator
