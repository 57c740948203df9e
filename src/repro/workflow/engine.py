"""The workflow engine: instances, transitions, history.

Instances are persisted rows; their mutable ``context`` dict travels
through conditions and pre/post functions.  ``auto`` actions chain: after
every transition the engine keeps firing available auto-actions until a
step requires a human (this is how the demo's single-step "generate an R
report" workflow runs to completion by itself).
"""

from __future__ import annotations

from typing import Any

from repro.audit.log import AuditLog
from repro.errors import (
    EntityNotFound,
    InvalidActionError,
    StateError,
    WorkflowConditionFailed,
    WorkflowDefinitionError,
    WorkflowTransitionFailed,
)
from repro.obs import Observability
from repro.resilience.faults import fault_point
from repro.resilience.policies import ResiliencePolicy, RetryPolicy, resilient
from repro.orm import (
    DateTimeField,
    IntField,
    JsonField,
    Model,
    Registry,
    TextField,
)
from repro.security.principals import Principal
from repro.storage.wal import encode_exact
from repro.util.clock import Clock, SystemClock
from repro.util.events import EventBus
from repro.workflow.definitions import END, WorkflowDefinition

INSTANCE_STATES = ("active", "completed", "cancelled", "failed")

#: Safety bound on auto-action chaining (a cycle of autos would spin).
_MAX_AUTO_CHAIN = 100

#: Default bounded retry for transition pre-functions.  Nothing is
#: persisted before they run, so re-running is safe; the short backoff
#: absorbs transient failures (a flaky notifier, a busy store).
DEFAULT_TRANSITION_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.01, max_delay=0.1, seed=0
)


class WorkflowInstance(Model):
    """A running (or finished) workflow attached to a domain object."""

    __table__ = "workflow_instance"
    id = IntField(primary_key=True)
    definition = TextField(nullable=False, index=True)
    entity_type = TextField(default="")
    entity_id = IntField(default=0)
    current_step = TextField(nullable=False)
    status = TextField(
        nullable=False, default="active", check=lambda v: v in INSTANCE_STATES
    )
    context = JsonField(default=dict)
    created_by = IntField(nullable=False, foreign_key="user.id")
    created_at = DateTimeField()
    updated_at = DateTimeField()
    __indexes__ = [("entity_type", "entity_id"), "status"]


class WorkflowEvent(Model):
    """One recorded transition of an instance."""

    __table__ = "workflow_event"
    id = IntField(primary_key=True)
    instance_id = IntField(nullable=False, foreign_key="workflow_instance.id")
    at = DateTimeField()
    actor = TextField(default="")
    action = TextField(nullable=False)
    from_step = TextField(nullable=False)
    to_step = TextField(nullable=False)


def workflow_models() -> list[type[Model]]:
    return [WorkflowInstance, WorkflowEvent]


def _attempt_pre_functions(
    action, context: dict[str, Any], error_chain: list[str]
) -> None:
    """One attempt at a transition's pre-functions; failures are
    appended to *error_chain* before they propagate to the retry."""
    try:
        fault_point("workflow.transition")
        for function in action.pre_functions:
            function(context)
    except Exception as exc:
        error_chain.append(f"{type(exc).__name__}: {exc}")
        raise


class WorkflowEngine:
    """Runs definitions; owns the definition registry."""

    def __init__(
        self,
        registry: Registry,
        *,
        audit: AuditLog,
        events: EventBus,
        clock: Clock | None = None,
        obs: Observability | None = None,
    ):
        self._registry = registry
        self._audit = audit
        self._events = events
        self._clock = clock or SystemClock()
        self.obs = obs if obs is not None else Observability()
        self._guarded_pre_functions = resilient(
            ResiliencePolicy(retry=DEFAULT_TRANSITION_RETRY),
            site="workflow.transition",
            obs=self.obs,
        )(_attempt_pre_functions)
        self._definitions: dict[str, WorkflowDefinition] = {}
        self._instances = registry.repository(WorkflowInstance)
        self._history = registry.repository(WorkflowEvent)
        self._m_transition_seconds = self.obs.metrics.histogram(
            "workflow_transition_seconds",
            "One fired action: guard, functions, persistence",
            labels=("definition", "action"),
        )
        self._m_transitions = self.obs.metrics.counter(
            "workflow_transitions_total",
            "Fired actions",
            labels=("definition",),
        )
        self._m_active = self.obs.metrics.gauge(
            "workflow_active", "Workflow instances currently active"
        )
        self._m_started = self.obs.metrics.counter(
            "workflow_started_total", "Instances started", labels=("definition",)
        )
        self._m_transition_failures = self.obs.metrics.counter(
            "workflow_transition_failures_total",
            "Transitions that exhausted their retries (instance failed)",
            labels=("definition",),
        )

    # -- definitions ----------------------------------------------------------------

    def register_definition(self, definition: WorkflowDefinition) -> None:
        if definition.name in self._definitions:
            raise WorkflowDefinitionError(
                f"workflow {definition.name!r} already registered"
            )
        self._definitions[definition.name] = definition

    def definition(self, name: str) -> WorkflowDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            raise WorkflowDefinitionError(
                f"no workflow definition named {name!r}"
            ) from None

    def definition_names(self) -> list[str]:
        return sorted(self._definitions)

    # -- lifecycle --------------------------------------------------------------------

    def start(
        self,
        principal: Principal,
        definition_name: str,
        *,
        entity_type: str = "",
        entity_id: int = 0,
        context: dict[str, Any] | None = None,
    ) -> WorkflowInstance:
        """Create an instance in the definition's initial step.

        Auto-actions available in the initial step fire immediately.
        """
        definition = self.definition(definition_name)
        instance = self._instances.create(
            definition=definition_name,
            entity_type=entity_type,
            entity_id=entity_id,
            current_step=definition.initial_step,
            status="active",
            context=context or {},
            created_by=principal.user_id,
            created_at=self._clock.now(),
            updated_at=self._clock.now(),
        )
        self._audit.record(
            principal, "create", "workflow_instance", instance.id,
            f"started {definition_name}",
        )
        self._m_started.labels(definition=definition_name).inc()
        self._m_active.inc()
        self._events.publish(
            "workflow.started", instance=instance, principal=principal
        )
        return self._run_auto_actions(principal, instance)

    def get(self, instance_id: int) -> WorkflowInstance:
        instance = self._instances.get_or_none(instance_id)
        if instance is None:
            raise EntityNotFound("WorkflowInstance", instance_id)
        return instance

    def for_entity(self, entity_type: str, entity_id: int) -> list[WorkflowInstance]:
        return (
            self._instances.query()
            .where("entity_type", "=", entity_type)
            .where("entity_id", "=", entity_id)
            .order_by("id")
            .all()
        )

    def active_instances(self) -> list[WorkflowInstance]:
        return (
            self._instances.query().where("status", "=", "active").order_by("id").all()
        )

    # -- stepping ---------------------------------------------------------------------

    def available_actions(self, instance_id: int) -> list[str]:
        """Actions the current step offers whose conditions hold."""
        instance = self.get(instance_id)
        if instance.status != "active":
            return []
        step = self.definition(instance.definition).step(instance.current_step)
        return [
            action.name
            for action in step.actions
            if action.available(instance.context)
        ]

    def fire(
        self,
        principal: Principal,
        instance_id: int,
        action_name: str,
        **context_updates: Any,
    ) -> WorkflowInstance:
        """Perform *action_name* on the instance.

        ``context_updates`` merge into the context *before* the guard is
        evaluated, so form input can satisfy conditions.  After the
        transition, available auto-actions chain.
        """
        timer = self.obs.timer()
        instance = self.get(instance_id)
        if instance.status != "active":
            raise StateError(
                f"workflow instance {instance_id} is {instance.status}"
            )
        definition = self.definition(instance.definition)
        step = definition.step(instance.current_step)
        action = step.action(action_name)
        if action is None:
            raise InvalidActionError(
                action_name, step.name, [a.name for a in step.actions]
            )
        context = dict(instance.context)
        context.update(context_updates)
        if not action.available(context):
            raise WorkflowConditionFailed(
                f"condition of {step.name}.{action_name} not satisfied"
            )
        self._run_pre_functions(principal, instance, step.name, action, context)

        to_step = action.target
        now = self._clock.now()
        changes: dict[str, Any] = {"context": context, "updated_at": now}
        if to_step != END:
            changes["current_step"] = to_step
        if to_step == END or definition.step(to_step).is_terminal:
            # Reaching the end completes the instance in the same write.
            changes["status"] = "completed"
        updated = self._instances.update(instance_id, **changes)
        self._history.create(
            instance_id=instance_id,
            at=now,
            actor=principal.login,
            action=action_name,
            from_step=step.name,
            to_step=to_step,
        )

        if action.post_functions:
            # Post-functions may mutate the context; persist what they
            # changed, and only then (an update logs the whole context).
            before = encode_exact(context)
            for function in action.post_functions:
                function(context)
            if encode_exact(context) != before:
                updated = self._instances.update(instance_id, context=context)

        if updated.status == "completed":
            self._finish_transition(timer, updated, action_name, completed=True)
            self._events.publish(
                "workflow.completed", instance=updated, principal=principal
            )
            return updated
        self._finish_transition(timer, updated, action_name, completed=False)
        self._events.publish(
            "workflow.transitioned", instance=updated, action=action_name,
            principal=principal,
        )
        return self._run_auto_actions(principal, updated)

    def _run_pre_functions(
        self,
        principal: Principal,
        instance: WorkflowInstance,
        step_name: str,
        action,
        context: dict[str, Any],
    ) -> None:
        """Run the action's pre-functions under the bounded retry policy.

        Nothing of the transition has been persisted yet, so a failed
        attempt can simply re-run (pre-functions are expected to be
        idempotent over the context).  When the attempts are exhausted
        the instance moves to the terminal ``failed`` state with the
        whole error chain in its context, and
        :class:`~repro.errors.WorkflowTransitionFailed` is raised.
        """
        error_chain: list[str] = []
        try:
            self._guarded_pre_functions(action, context, error_chain)
        except Exception as exc:
            self._fail_transition(
                principal, instance, step_name, action.name, error_chain, exc
            )

    def _fail_transition(
        self,
        principal: Principal,
        instance: WorkflowInstance,
        step_name: str,
        action_name: str,
        attempts: list[str],
        cause: BaseException,
    ) -> None:
        """Move *instance* to terminal ``failed``; always raises."""
        now = self._clock.now()
        context = dict(self.get(instance.id).context)
        context["failure_reason"] = attempts[-1]
        context["error_chain"] = list(attempts)
        updated = self._instances.update(
            instance.id, status="failed", context=context, updated_at=now
        )
        self._m_active.dec()
        self._m_transition_failures.labels(definition=instance.definition).inc()
        self._history.create(
            instance_id=instance.id,
            at=now,
            actor=principal.login,
            action=action_name,
            from_step=step_name,
            to_step="__failed__",
        )
        self.obs.log.log(
            "workflow.transition_failed",
            instance=instance.id,
            action=action_name,
            attempts=len(attempts),
            error=attempts[-1],
        )
        self._audit.record(
            principal, "update", "workflow_instance", instance.id,
            f"failed after {len(attempts)} attempt(s): {attempts[-1]}",
        )
        self._events.publish(
            "workflow.failed", instance=updated, principal=principal
        )
        raise WorkflowTransitionFailed(
            f"workflow instance {instance.id}: action {action_name!r} in "
            f"step {step_name!r} failed after {len(attempts)} attempt(s): "
            f"{attempts[-1]}",
            attempts=attempts,
        ) from cause

    def _finish_transition(
        self, timer, instance: WorkflowInstance, action_name: str, *, completed: bool
    ) -> None:
        """Record per-transition metrics; *timer* was started at fire()."""
        elapsed = timer.elapsed()
        self._m_transition_seconds.labels(
            definition=instance.definition, action=action_name
        ).observe(elapsed)
        self._m_transitions.labels(definition=instance.definition).inc()
        if completed:
            self._m_active.dec()
        self.obs.log.log(
            "workflow.transition",
            instance=instance.id,
            definition=instance.definition,
            action=action_name,
            to_step=instance.current_step,
            status=instance.status,
            duration=elapsed,
        )

    def _run_auto_actions(
        self, principal: Principal, instance: WorkflowInstance
    ) -> WorkflowInstance:
        """Chain auto-actions until a human step or completion."""
        definition = self.definition(instance.definition)
        for _ in range(_MAX_AUTO_CHAIN):
            if instance.status != "active":
                return instance
            step = definition.step(instance.current_step)
            auto = next(
                (
                    action
                    for action in step.actions
                    if action.auto and action.available(instance.context)
                ),
                None,
            )
            if auto is None:
                return instance
            instance = self.fire(principal, instance.id, auto.name)
        raise StateError(
            f"workflow instance {instance.id}: auto-action chain exceeded "
            f"{_MAX_AUTO_CHAIN} transitions (cycle of auto actions?)"
        )

    def cancel(self, principal: Principal, instance_id: int) -> WorkflowInstance:
        instance = self.get(instance_id)
        if instance.status != "active":
            raise StateError(
                f"workflow instance {instance_id} is {instance.status}"
            )
        updated = self._instances.update(
            instance_id, status="cancelled", updated_at=self._clock.now()
        )
        self._m_active.dec()
        self._audit.record(
            principal, "update", "workflow_instance", instance_id, "cancelled"
        )
        return updated

    def fail(
        self, principal: Principal, instance_id: int, reason: str
    ) -> WorkflowInstance:
        """Mark an instance failed (used by application connectors)."""
        instance = self.get(instance_id)
        if instance.status != "active":
            raise StateError(
                f"workflow instance {instance_id} is {instance.status}"
            )
        context = dict(instance.context)
        context["failure_reason"] = reason
        updated = self._instances.update(
            instance_id,
            status="failed",
            context=context,
            updated_at=self._clock.now(),
        )
        self._m_active.dec()
        self.obs.log.log(
            "workflow.failed", instance=instance_id, reason=reason
        )
        self._audit.record(
            principal, "update", "workflow_instance", instance_id,
            f"failed: {reason}",
        )
        return updated

    def retry(
        self,
        principal: Principal,
        instance_id: int,
        *,
        from_step: str | None = None,
    ) -> WorkflowInstance:
        """Reactivate a failed instance (workflow administration).

        The instance resumes in *from_step* (default: where it failed);
        auto-actions chain as usual.  Only failed instances can retry —
        cancelled ones stay cancelled.
        """
        instance = self.get(instance_id)
        if instance.status != "failed":
            raise StateError(
                f"workflow instance {instance_id} is {instance.status}; "
                "only failed instances can be retried"
            )
        definition = self.definition(instance.definition)
        target = from_step or instance.current_step
        definition.step(target)  # validates the step exists
        context = dict(instance.context)
        context.pop("failure_reason", None)
        context.pop("error_chain", None)
        now = self._clock.now()
        updated = self._instances.update(
            instance_id,
            status="active",
            current_step=target,
            context=context,
            updated_at=now,
        )
        self._m_active.inc()
        self._history.create(
            instance_id=instance_id,
            at=now,
            actor=principal.login,
            action="__retry__",
            from_step=instance.current_step,
            to_step=target,
        )
        self._audit.record(
            principal, "update", "workflow_instance", instance_id,
            f"retried in step {target}",
        )
        return self._run_auto_actions(principal, updated)

    # -- history ------------------------------------------------------------------------

    def history(self, instance_id: int) -> list[WorkflowEvent]:
        return (
            self._history.query()
            .where("instance_id", "=", instance_id)
            .order_by("id")
            .all()
        )
