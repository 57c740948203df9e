"""The dead-letter queue: failed event deliveries, persisted.

When an :class:`~repro.util.events.EventBus` subscriber raises, the bus
no longer aborts the publication — the failed delivery is *dead-lettered*
here as a ``dead_letter`` row and the remaining subscribers still run.
A crashing consumer can therefore neither lose an event nor poison the
deliveries behind it, and an operator can replay the letter once the
consumer is fixed (``repro dlq list|retry`` or the service API).

Event payloads hold live objects (model instances, principals), which a
persistent queue cannot store verbatim.  Two layers keep retries exact:

* the original live payload is cached in memory keyed by letter id, so a
  same-process retry redelivers the *identical* objects;
* a JSON-safe encoding is persisted — model instances become
  ``{"__entity__": {"table": ..., "pk": ...}}`` references (reloaded
  from the database at retry time), principals become
  ``{"__principal__": ...}``, JSON-native values pass through, anything
  else degrades to a ``repr`` string — so a retry from a fresh process
  (the CLI) still reconstructs a faithful payload.

Dead *jobs* are parked in the ``job`` table, not here (``repro queue
retry``).  A ``source="queue"`` letter left by an older data directory
names no current subscriber, so ``repro dlq retry`` refuses it: discard
it and retry the job instead.
"""

from __future__ import annotations

import datetime as _dt
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import StateError
from repro.orm import (
    DateTimeField,
    IntField,
    JsonField,
    Model,
    Registry,
    TextField,
)
from repro.security.principals import Principal, Role
from repro.util.clock import Clock, SystemClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.util.events import EventBus

DEAD_LETTER_STATES = ("dead", "retried", "discarded")


class DeadLetter(Model):
    """One failed event delivery awaiting operator attention."""

    __table__ = "dead_letter"
    id = IntField(primary_key=True)
    source = TextField(nullable=False, default="events")
    event = TextField(nullable=False, index=True)
    handler = TextField(nullable=False, default="")
    payload = JsonField(default=dict)
    error = TextField(default="")
    attempts = IntField(default=1)
    status = TextField(
        nullable=False, default="dead", check=lambda v: v in DEAD_LETTER_STATES
    )
    created_at = DateTimeField()
    updated_at = DateTimeField()
    __indexes__ = ["status"]


def handler_name(handler: Callable[..., Any]) -> str:
    """A stable, human-readable name for a subscriber callable."""
    name = getattr(handler, "__qualname__", None) or getattr(
        handler, "__name__", None
    )
    return name or repr(handler)


class DeadLetterQueue:
    """Persistence and replay of failed event deliveries."""

    def __init__(
        self,
        registry: Registry,
        *,
        clock: Clock | None = None,
        obs: "Observability | None" = None,
    ):
        self._registry = registry
        self._letters = registry.register(DeadLetter)
        self._clock = clock or SystemClock()
        self._obs = obs
        #: Live payloads for same-process retries (letter id → kwargs).
        self._live: dict[int, dict[str, Any]] = {}
        self._m_dead = None
        if obs is not None:
            self._m_dead = obs.metrics.counter(
                "events_dead_letters_total",
                "Failed deliveries routed to the dead-letter queue",
                labels=("event",),
            )
            obs.metrics.gauge(
                "events_dead_letters_pending",
                "Dead letters awaiting retry or discard",
            )

    # -- enqueue -----------------------------------------------------------------

    def add(
        self,
        event: str,
        handler: Callable[..., Any],
        payload: dict[str, Any],
        error: BaseException,
    ) -> DeadLetter:
        """Record one failed delivery; returns the persisted letter."""
        name = handler_name(handler)
        now = self._clock.now()
        letter = self._letters.create(
            event=event,
            handler=name,
            payload=self._encode_payload(payload),
            error=f"{type(error).__name__}: {error}",
            attempts=1,
            status="dead",
            created_at=now,
            updated_at=now,
        )
        self._live[letter.id] = dict(payload)
        if self._m_dead is not None:
            self._m_dead.labels(event=event).inc()
            self._update_pending_gauge()
        if self._obs is not None:
            self._obs.log.log(
                "events.dead_letter",
                id=letter.id,
                topic=event,
                handler=name,
                error=str(error),
            )
        return letter

    # -- inspection ----------------------------------------------------------------

    def get(self, letter_id: int) -> DeadLetter:
        letter = self._letters.get_or_none(letter_id)
        if letter is None:
            raise StateError(f"no dead letter with id {letter_id}")
        return letter

    def list(self, *, status: str | None = "dead") -> list[DeadLetter]:
        query = self._letters.query()
        if status is not None:
            query = query.where("status", "=", status)
        return query.order_by("id").all()

    def pending_count(self) -> int:
        return self._letters.query().where("status", "=", "dead").count()

    # -- replay ----------------------------------------------------------------------

    def retry(self, letter_id: int, bus: "EventBus") -> DeadLetter:
        """Re-deliver one letter to its (current) subscriber.

        Success flips the letter to ``retried``; a repeated failure
        bumps ``attempts``, refreshes ``error``, leaves it ``dead`` and
        re-raises so the operator sees why.
        """
        letter = self.get(letter_id)
        if letter.status != "dead":
            raise StateError(
                f"dead letter {letter_id} is {letter.status}, not dead"
            )
        handler = self._find_handler(bus, letter.event, letter.handler)
        if handler is None:
            raise StateError(
                f"no subscriber named {letter.handler!r} is currently "
                f"registered for event {letter.event!r}"
            )
        payload = self._live.get(letter.id) or self._decode_payload(letter.payload)
        try:
            handler(**payload)
        except Exception as exc:
            self._letters.update(
                letter_id,
                attempts=letter.attempts + 1,
                error=f"{type(exc).__name__}: {exc}",
                updated_at=self._clock.now(),
            )
            raise
        return self._close(letter_id, "retried")

    def retry_all(self, bus: "EventBus") -> tuple[int, int]:
        """Retry every dead letter; returns ``(succeeded, failed)``."""
        succeeded = failed = 0
        for letter in self.list(status="dead"):
            try:
                self.retry(letter.id, bus)
                succeeded += 1
            except Exception:
                failed += 1
        return succeeded, failed

    def discard(self, letter_id: int) -> DeadLetter:
        letter = self.get(letter_id)
        if letter.status != "dead":
            raise StateError(
                f"dead letter {letter_id} is {letter.status}, not dead"
            )
        return self._close(letter_id, "discarded")

    def _close(self, letter_id: int, status: str) -> DeadLetter:
        updated = self._letters.update(
            letter_id, status=status, updated_at=self._clock.now()
        )
        self._live.pop(letter_id, None)
        self._update_pending_gauge()
        return updated

    @staticmethod
    def _find_handler(
        bus: "EventBus", event: str, name: str
    ) -> Callable[..., Any] | None:
        for handler in bus.handlers_for(event):
            if handler_name(handler) == name:
                return handler
        return None

    def _update_pending_gauge(self) -> None:
        if self._obs is not None:
            self._obs.metrics.gauge("events_dead_letters_pending").set(
                self.pending_count()
            )

    # -- payload (de)hydration ----------------------------------------------------------

    def _encode_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {key: self._encode_value(value) for key, value in payload.items()}

    def _encode_value(self, value: Any) -> Any:
        if isinstance(value, Model):
            return {"__entity__": {"table": value.__table__, "pk": value.pk}}
        if isinstance(value, Principal):
            return {
                "__principal__": {
                    "user_id": value.user_id,
                    "login": value.login,
                    "role": value.role.value,
                }
            }
        if isinstance(value, _dt.datetime):
            return {"__datetime__": value.isoformat()}
        if isinstance(value, (list, tuple)):
            return [self._encode_value(item) for item in value]
        if isinstance(value, dict):
            return {str(k): self._encode_value(v) for k, v in value.items()}
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        return {"__repr__": repr(value)}

    def _decode_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {key: self._decode_value(value) for key, value in payload.items()}

    def _decode_value(self, value: Any) -> Any:
        if isinstance(value, list):
            return [self._decode_value(item) for item in value]
        if not isinstance(value, dict):
            return value
        if "__entity__" in value and set(value) == {"__entity__"}:
            ref = value["__entity__"]
            repo = self._registry.repository_for(ref["table"])
            if repo is None:
                raise StateError(
                    f"cannot rehydrate entity of table {ref['table']!r}: "
                    "no model registered"
                )
            entity = repo.get_or_none(ref["pk"])
            if entity is None:
                raise StateError(
                    f"cannot rehydrate {ref['table']}[{ref['pk']!r}]: "
                    "row no longer exists"
                )
            return entity
        if "__principal__" in value and set(value) == {"__principal__"}:
            data = value["__principal__"]
            return Principal(
                user_id=data["user_id"],
                login=data["login"],
                role=Role(data["role"]),
            )
        if "__datetime__" in value and set(value) == {"__datetime__"}:
            return _dt.datetime.fromisoformat(value["__datetime__"])
        if "__repr__" in value and set(value) == {"__repr__"}:
            return value["__repr__"]
        return {k: self._decode_value(v) for k, v in value.items()}
