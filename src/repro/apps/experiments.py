"""Experiment definitions and runs (paper Figures 13–16).

Defining an experiment = picking data resources, samples, extracts and
arbitrary attributes that feed a registered application.  Running it:

1. a result workunit is created (``pending`` — Figure 15);
2. the single-step experiment workflow starts; its ``execute`` action
   stages the inputs, calls the connector, stores the produced files as
   the workunit's resources, and re-links the selected input resources
   into the workunit flagged ``is_input``;
3. on success the workunit becomes ``available`` (Figure 16 "Ready"),
   on failure ``failed`` and an ``experiment.failed`` event opens an
   admin task.

``defer=True`` leaves the workflow parked in its pending step so the
demo's pending screen is observable; :meth:`ExperimentService.execute_pending`
(or a job :meth:`ExperimentService.enqueue_execution` queues) then
fires it.  A run that is not deferred is inline: it runs the
application first and writes the rows of steps 1–3 after it returns,
so a portal request holds the writer lock for those writes only.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Sequence

from repro.apps.connectors import RunOutcome, RunRequest
from repro.apps.registry import ApplicationRegistry, check_parameters
from repro.audit.log import AuditLog
from repro.core.entities import Application, Experiment, Workunit
from repro.core.services.samples import SampleService
from repro.core.services.workunits import WorkunitService
from repro.dataimport.store import ManagedStore
from repro.errors import (
    BFabricError,
    CrashPoint,
    EntityNotFound,
    StateError,
    ValidationError,
)
from repro.orm import Registry
from repro.security.acl import AccessControl, Permission
from repro.security.principals import Principal
from repro.tasks.queue import (
    Job,
    JobQueue,
    decode_principal,
    encode_principal,
)
from repro.util.clock import Clock, SystemClock
from repro.util.events import EventBus
from repro.util.text import normalize_whitespace
from repro.workflow.definitions import Action, Step, WorkflowDefinition
from repro.workflow.engine import WorkflowEngine, WorkflowInstance

#: Name of the registered experiment-run workflow definition.
EXPERIMENT_WORKFLOW = "run_experiment"

#: Queue job type for background application runs.
EXECUTE_JOB = "experiment.execute"


def experiment_workflow_definition() -> WorkflowDefinition:
    """The demo's single-step "generate an R report" workflow."""
    return WorkflowDefinition(
        EXPERIMENT_WORKFLOW,
        steps=[
            Step(
                "pending",
                actions=(
                    Action("execute", target="ready", label="Generate report"),
                ),
                label="Pending",
                description="Application run queued",
            ),
            Step("ready", actions=(), label="Ready"),
        ],
        description="Run a registered application over an experiment",
    )


class ExperimentService:
    """Defines and runs experiments."""

    def __init__(
        self,
        registry: Registry,
        *,
        applications: ApplicationRegistry,
        workunits: WorkunitService,
        samples: SampleService,
        workflow: WorkflowEngine,
        store: ManagedStore,
        audit: AuditLog,
        acl: AccessControl,
        events: EventBus,
        clock: Clock | None = None,
        access=None,
        queue: JobQueue | None = None,
    ):
        self._registry = registry
        self._access = access
        self._queue = queue
        if queue is not None:
            queue.register_handler(
                EXECUTE_JOB,
                self._execute_job,
                on_lease_lost=self._on_execute_lease_lost,
            )
        self._applications = applications
        self._workunits = workunits
        self._samples = samples
        self._workflow = workflow
        self._store = store
        self._audit = audit
        self._acl = acl
        self._events = events
        self._clock = clock or SystemClock()
        self._experiments = registry.repository(Experiment)
        if EXPERIMENT_WORKFLOW not in workflow.definition_names():
            workflow.register_definition(experiment_workflow_definition())

    # -- definition (Figure 13) -----------------------------------------------------

    def define(
        self,
        principal: Principal,
        project_id: int,
        name: str,
        *,
        application_id: int,
        resource_ids: Sequence[int] = (),
        sample_ids: Sequence[int] = (),
        extract_ids: Sequence[int] = (),
        attributes: dict[str, Any] | None = None,
    ) -> Experiment:
        """Create an experiment definition, validating every selection."""
        self._acl.require(principal, Permission.WRITE, project_id)
        name = normalize_whitespace(name)
        if not name:
            raise ValidationError("experiment name required", {"name": "required"})
        application = self._applications.get(application_id)
        if not application.active:
            raise ValidationError(f"application {application.name!r} is inactive")

        needed = set(application.interface.get("inputs", []))
        if "resource" in needed and not resource_ids:
            raise ValidationError(
                f"application {application.name!r} needs data resources"
            )
        self._check_resources_in_project(principal, project_id, resource_ids)
        for sample_id in sample_ids:
            sample = self._samples.get_sample(principal, sample_id)
            if sample.project_id != project_id:
                raise ValidationError(
                    f"sample {sample_id} belongs to another project"
                )
        project_extracts = {
            e.id for e in self._samples.extracts_of_project(principal, project_id)
        }
        for extract_id in extract_ids:
            if extract_id not in project_extracts:
                raise ValidationError(
                    f"extract {extract_id} belongs to another project"
                )

        experiment = self._experiments.create(
            name=name,
            project_id=project_id,
            application_id=application_id,
            resource_ids=list(resource_ids),
            sample_ids=list(sample_ids),
            extract_ids=list(extract_ids),
            attributes=attributes or {},
            created_by=principal.user_id,
            created_at=self._clock.now(),
        )
        self._audit.record(principal, "create", "experiment", experiment.id, name)
        self._events.publish(
            "experiment.defined", experiment=experiment, principal=principal
        )
        return experiment

    def _check_resources_in_project(
        self, principal: Principal, project_id: int, resource_ids: Sequence[int]
    ) -> None:
        for resource_id in resource_ids:
            resource = self._find_resource(principal, resource_id)
            workunit = self._workunits.get(principal, resource.workunit_id)
            if workunit.project_id != project_id:
                raise ValidationError(
                    f"resource {resource_id} belongs to another project"
                )

    def _find_resource(self, principal: Principal, resource_id: int):
        from repro.core.entities import DataResource

        resource = self._registry.repository(DataResource).get_or_none(resource_id)
        if resource is None:
            raise EntityNotFound("DataResource", resource_id)
        return resource

    def get(self, principal: Principal, experiment_id: int) -> Experiment:
        experiment = self._experiments.get_or_none(experiment_id)
        if experiment is None:
            raise EntityNotFound("Experiment", experiment_id)
        self._acl.require(principal, Permission.READ, experiment.project_id)
        return experiment

    def of_project(self, principal: Principal, project_id: int) -> list[Experiment]:
        self._acl.require(principal, Permission.READ, project_id)
        return (
            self._experiments.query()
            .where("project_id", "=", project_id)
            .order_by("id")
            .all()
        )

    # -- running (Figure 14) ------------------------------------------------------------

    def run(
        self,
        principal: Principal,
        experiment_id: int,
        *,
        workunit_name: str,
        parameters: dict[str, Any] | None = None,
        defer: bool = False,
    ) -> Workunit:
        """Invoke the experiment's application.

        Returns the result workunit: ``available`` after an inline run,
        ``pending`` when *defer* is set (fire later with
        :meth:`execute_pending` or :meth:`enqueue_execution`), ``failed``
        if the application failed.
        """
        experiment = self.get(principal, experiment_id)
        self._acl.require(principal, Permission.WRITE, experiment.project_id)
        application = self._applications.get(experiment.application_id)
        effective = check_parameters(application.interface, parameters or {})
        if defer:
            return self._open_run(
                principal, experiment, application, workunit_name, effective
            )[0]
        return self._run_inline(
            principal, experiment, application, workunit_name, effective
        )

    def _open_run(
        self,
        principal: Principal,
        experiment: Experiment,
        application: Application,
        workunit_name: str,
        parameters: dict[str, Any],
    ) -> tuple[Workunit, WorkflowInstance]:
        """Create the pending result workunit and start its workflow."""
        workunit = self._workunits.create(
            principal,
            experiment.project_id,
            workunit_name,
            description=f"run of {application.name!r} "
            f"for experiment {experiment.name!r}",
            application_id=application.id,
            parameters=parameters,
        )
        instance = self._workflow.start(
            principal,
            EXPERIMENT_WORKFLOW,
            entity_type="workunit",
            entity_id=workunit.id,
            context={"experiment_id": experiment.id, "parameters": parameters},
        )
        self._audit.record(
            principal, "create", "experiment_run", workunit.id,
            f"run {application.name} for {experiment.name}",
        )
        return workunit, instance

    def _run_inline(
        self,
        principal: Principal,
        experiment: Experiment,
        application: Application,
        workunit_name: str,
        parameters: dict[str, Any],
    ) -> Workunit:
        """Run the application, then record the run.

        Nothing is written until the application has returned, so a
        caller's transaction (a portal request) takes the writer lock
        for the run's writes only, not for the application's runtime.
        """
        with tempfile.TemporaryDirectory() as tmp:
            outcome = self._invoke(
                principal, experiment, application, parameters, Path(tmp)
            )
            workunit, instance = self._open_run(
                principal, experiment, application, workunit_name, parameters
            )
            workunit = self._workunits.transition(
                principal, workunit.id, "processing"
            )
            return self._conclude(
                principal, workunit, instance.id, experiment, outcome
            )

    # -- the queue path -----------------------------------------------------------------

    def enqueue_execution(self, principal: Principal, workunit_id: int) -> Job:
        """Queue a pending run as a background job; returns the job row.

        Idempotent per workunit: one workunit executes once no matter
        how many times its execution is enqueued or redelivered.
        """
        if self._queue is None:
            raise ValidationError("no job queue attached to the experiments")
        return self._queue.enqueue(
            EXECUTE_JOB,
            {
                "principal": encode_principal(principal),
                "workunit_id": workunit_id,
            },
            idempotency_key=f"exp:{workunit_id}",
        )

    def _execute_job(self, job: Job) -> dict:
        """Queue handler: run (or recover) one pending execution."""
        principal = decode_principal(job.payload["principal"])
        workunit_id = job.payload["workunit_id"]
        workunit = self._workunits.get(principal, workunit_id)
        if workunit.status in ("available", "failed"):
            # Redelivery after a torn ack: the run already finished.
            return {
                "workunit_id": workunit_id,
                "status": workunit.status,
                "resumed": True,
            }
        if workunit.status == "processing":
            # A killed worker died mid-run; discard its partial outputs
            # and put the workunit back where a fresh run can start.
            self._reset_interrupted_run(principal, workunit_id)
        workunit = self.execute_pending(principal, workunit_id)
        return {"workunit_id": workunit_id, "status": workunit.status}

    def _reset_interrupted_run(
        self, principal: Principal, workunit_id: int
    ) -> None:
        """Compensate a run that died between ``processing`` and done.

        Partial outputs (collected resources, store bytes) go; the
        status returns to ``pending`` directly — the lifecycle map has
        no processing→pending edge because no *user* action does this,
        but crash recovery legitimately rewinds the machine.
        """
        from repro.core.entities import DataResource

        resource_repo = self._registry.repository(DataResource)
        for resource in resource_repo.find(workunit_id=workunit_id):
            resource_repo.delete(resource.id)
        directory = self._store.directory_for(workunit_id)
        if directory.exists():
            import shutil

            shutil.rmtree(directory, ignore_errors=True)
        self._registry.repository(Workunit).update(
            workunit_id, status="pending"
        )

    def _on_execute_lease_lost(self, job: Job, result: object) -> None:
        """Compensate the losing side of a double execution.

        Both deliveries ran over the *same* workunit, so the duplicate
        effects are doubled-up resource rows; keep the first of each
        (name, is_input) pair and drop the rest.  Store bytes are keyed
        by content inside one workunit directory, so deduplicating rows
        is sufficient.
        """
        from repro.core.entities import DataResource

        workunit_id = job.payload["workunit_id"]
        resource_repo = self._registry.repository(DataResource)
        seen: set[tuple[str, bool]] = set()
        for resource in sorted(
            resource_repo.find(workunit_id=workunit_id), key=lambda r: r.id
        ):
            key = (resource.name, bool(resource.is_input))
            if key in seen:
                resource_repo.delete(resource.id)
            else:
                seen.add(key)

    def pending_runs(self, principal: Principal) -> list[Workunit]:
        """Workunits whose experiment workflow awaits execution."""
        pending = []
        for instance in self._workflow.active_instances():
            if instance.definition != EXPERIMENT_WORKFLOW:
                continue
            workunit = self._workunits.get(principal, instance.entity_id)
            if workunit.status == "pending":
                pending.append(workunit)
        return pending

    def execute_pending(self, principal: Principal, workunit_id: int) -> Workunit:
        """Fire the ``execute`` action: stage, run, collect."""
        instance = self._active_instance(workunit_id)
        experiment = self.get(principal, instance.context["experiment_id"])
        application = self._applications.get(experiment.application_id)

        workunit = self._workunits.transition(principal, workunit_id, "processing")
        with tempfile.TemporaryDirectory() as tmp:
            outcome = self._invoke(
                principal, experiment, application, workunit.parameters,
                Path(tmp),
            )
            return self._conclude(
                principal, workunit, instance.id, experiment, outcome
            )

    def _invoke(
        self,
        principal: Principal,
        experiment: Experiment,
        application: Application,
        parameters: dict[str, Any],
        workdir: Path,
    ) -> "RunOutcome | BFabricError":
        """Stage the inputs into *workdir* and run the application; a
        failure is returned, for :meth:`_conclude` to record."""
        try:
            input_files = self._stage_inputs(principal, experiment, workdir)
            # Registry.run applies the retry/timeout/breaker policy;
            # CircuitOpenError and TimeoutExceeded are BFabricErrors,
            # so an outage lands in the same failed path.
            return self._applications.run(
                application,
                RunRequest(
                    application=application.name,
                    executable=application.executable,
                    input_files=input_files,
                    parameters=dict(parameters),
                    attributes=dict(experiment.attributes),
                    workdir=workdir,
                ),
            )
        except CrashPoint:
            # A simulated process kill (CrashPoint *is* a BFabricError):
            # a real SIGKILL cannot fail the workflow or transition the
            # workunit, so neither may we — redelivery heals the
            # ``processing`` state via _reset_interrupted_run.
            raise
        except BFabricError as error:
            return error

    def _conclude(
        self,
        principal: Principal,
        workunit: Workunit,
        instance_id: int,
        experiment: Experiment,
        outcome: "RunOutcome | BFabricError",
    ) -> Workunit:
        """Collect a processing run's outcome and complete its workflow,
        or fail both if the run (or the collection) failed."""
        error = outcome if isinstance(outcome, BFabricError) else None
        if error is None:
            try:
                self._collect(principal, workunit, experiment, outcome)
            except CrashPoint:
                raise
            except BFabricError as exc:
                error = exc
        if error is not None:
            self._workflow.fail(principal, instance_id, str(error))
            workunit = self._workunits.transition(
                principal, workunit.id, "failed"
            )
            self._events.publish(
                "experiment.failed", workunit=workunit, error=error,
                principal=principal,
            )
            return workunit

        self._workflow.fire(principal, instance_id, "execute")
        workunit = self._workunits.transition(principal, workunit.id, "available")
        self._events.publish(
            "experiment.completed", workunit=workunit, experiment=experiment,
            principal=principal,
        )
        return workunit

    def _active_instance(self, workunit_id: int):
        for instance in self._workflow.for_entity("workunit", workunit_id):
            if (
                instance.definition == EXPERIMENT_WORKFLOW
                and instance.status == "active"
            ):
                return instance
        raise StateError(
            f"workunit {workunit_id} has no active experiment workflow"
        )

    def _stage_inputs(
        self, principal: Principal, experiment: Experiment, workdir: Path
    ) -> list[Path]:
        """Materialize the experiment's input resources as local files."""
        staging = workdir / "inputs"
        staging.mkdir()
        staged: list[Path] = []
        for resource_id in experiment.resource_ids:
            resource = self._find_resource(principal, resource_id)
            target = staging / resource.name
            if resource.uri.startswith("store://"):
                source = self._store.path_for(resource.uri)
                target.write_bytes(source.read_bytes())
            elif self._access is not None:
                # Linked resources: re-fetch through the provider so the
                # application sees real bytes ("users do not need to
                # care about where and how the data are kept").
                try:
                    fetched = self._access.materialize(resource.uri, staging)
                    if fetched != target:
                        target.write_bytes(fetched.read_bytes())
                except BFabricError:
                    # Provider gone: stage a descriptor so the run can
                    # still proceed deterministically.
                    target.write_bytes(resource.uri.encode("utf-8"))
            else:
                target.write_bytes(resource.uri.encode("utf-8"))
            staged.append(target)
        return staged

    def _collect(
        self,
        principal: Principal,
        workunit: Workunit,
        experiment: Experiment,
        outcome: RunOutcome,
    ) -> None:
        """Store result files and re-link inputs into the workunit."""
        for path in outcome.files:
            uri, checksum, size = self._store.ingest(workunit.id, Path(path))
            self._workunits.add_resource(
                principal,
                workunit.id,
                Path(path).name,
                uri,
                storage="internal",
                size_bytes=size,
                checksum=checksum,
            )
        if outcome.report:
            report_path = self._store.directory_for(workunit.id) / "_run_report.txt"
            report_path.parent.mkdir(parents=True, exist_ok=True)
            report_path.write_text(outcome.report, encoding="utf-8")
        for resource_id in experiment.resource_ids:
            original = self._find_resource(principal, resource_id)
            self._workunits.add_resource(
                principal,
                workunit.id,
                original.name,
                original.uri,
                storage="linked",
                size_bytes=original.size_bytes,
                checksum=original.checksum,
                extract_id=original.extract_id,
                is_input=True,
            )
