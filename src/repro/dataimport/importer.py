"""The data-import service: provider registry, imports, extract assignment.

An import (paper Figure 9) runs as a workflow (Figure 10)::

    [fetch files] --fetched(auto)--> [assign extracts] --save--> END

The fetch step executes during :meth:`DataImportService.import_files`;
the workflow then parks in ``assign_extracts`` — the step highlighted
for the user — until :meth:`apply_assignments` fires ``save``.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.audit.log import AuditLog
from repro.core.entities import DataResource, Extract, Workunit
from repro.core.services.samples import SampleService
from repro.core.services.workunits import WorkunitService
from repro.dataimport.matching import AssignmentProposal, propose_assignments
from repro.dataimport.providers import DataProvider, ProviderFile, RelevanceFilter
from repro.dataimport.store import ManagedStore
from repro.errors import (
    CrashPoint,
    ImportError_,
    ProviderError,
    TimeoutExceeded,
    ValidationError,
)
from repro.resilience.faults import fault_point
from repro.resilience.policies import (
    BreakerRegistry,
    ResiliencePolicy,
    RetryPolicy,
    Timeout,
    resilient,
)
from repro.orm import (
    BoolField,
    DateTimeField,
    IntField,
    JsonField,
    Model,
    Registry,
    TextField,
)
from repro.security.principals import Principal
from repro.tasks.queue import (
    Job,
    JobQueue,
    decode_principal,
    encode_principal,
)
from repro.util.clock import Clock, SystemClock
from repro.util.events import EventBus
from repro.util.ids import token_hex
from repro.workflow.definitions import Action, Step, WorkflowDefinition
from repro.workflow.engine import WorkflowEngine, WorkflowInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Retry/timeout defaults for provider fetches: instrument shares are
#: slow and flaky, so a couple of short-backoff retries absorb most
#: transient failures; anything slower than the timeout is treated as
#: an outage and counts against the provider's circuit breaker.
DEFAULT_PROVIDER_POLICY = ResiliencePolicy(
    retry=RetryPolicy(
        max_attempts=3,
        base_delay=0.05,
        seed=0,
        retry_on=(ProviderError, TimeoutExceeded, OSError),
    ),
    timeout=Timeout(30.0),
)

#: Name of the registered data-import workflow definition.
IMPORT_WORKFLOW = "data_import"

#: Queue job type for background imports.
IMPORT_JOB = "import.files"

#: Workunit parameter carrying the import's queue-level identity.  A
#: redelivered job finds its first attempt's workunit through this key,
#: which is what turns at-least-once delivery into effects-once imports.
IMPORT_JOB_KEY_PARAM = "import_job_key"

IMPORT_MODES = ("copy", "link")


class ProviderConfig(Model):
    """Persisted provider configuration (admin-visible)."""

    __table__ = "data_provider"
    id = IntField(primary_key=True)
    name = TextField(nullable=False, unique=True)
    kind = TextField(nullable=False)
    config = JsonField(default=dict)
    active = BoolField(default=True)
    created_at = DateTimeField()


def import_workflow_definition() -> WorkflowDefinition:
    """Build the two-step import workflow of Figure 10."""
    return WorkflowDefinition(
        IMPORT_WORKFLOW,
        steps=[
            Step(
                "fetch",
                actions=(
                    Action(
                        "fetched",
                        target="assign_extracts",
                        label="Files fetched",
                        auto=True,
                    ),
                ),
                label="Fetch files",
                description="Copy or link the selected provider files",
            ),
            Step(
                "assign_extracts",
                actions=(
                    Action("save", target="done", label="Save assignments"),
                ),
                label="Assign extracts",
                description="Connect each imported file to its extract",
            ),
            Step("done", actions=(), label="Import complete"),
        ],
        description="Data import: fetch provider files, assign extracts",
    )


class DataImportService:
    """Imports provider files into workunits."""

    def __init__(
        self,
        registry: Registry,
        *,
        workunits: WorkunitService,
        samples: SampleService,
        workflow: WorkflowEngine,
        store: ManagedStore,
        audit: AuditLog,
        events: EventBus,
        clock: Clock | None = None,
        obs: "Observability | None" = None,
        breakers: BreakerRegistry | None = None,
        provider_policy: ResiliencePolicy | None = None,
        queue: JobQueue | None = None,
    ):
        self._registry = registry
        self._workunits = workunits
        self._samples = samples
        self._workflow = workflow
        self._store = store
        self._audit = audit
        self._events = events
        self._clock = clock or SystemClock()
        self._obs = obs
        self._breakers = breakers
        self._provider_policy = provider_policy or DEFAULT_PROVIDER_POLICY
        self._providers: dict[str, DataProvider] = {}
        self._configs = registry.repository(ProviderConfig)
        self._queue = queue
        if queue is not None:
            queue.register_handler(
                IMPORT_JOB,
                self._import_job,
                on_lease_lost=self._on_import_lease_lost,
            )
        if IMPORT_WORKFLOW not in workflow.definition_names():
            workflow.register_definition(import_workflow_definition())

    # -- provider registry -----------------------------------------------------------

    def register_provider(self, provider: DataProvider) -> ProviderConfig:
        """Make a provider available for imports.

        "New data providers can be added to the system easily" — the
        live object goes into the in-memory registry, its configuration
        is persisted for the admin console.
        """
        if provider.name in self._providers:
            raise ValidationError(f"provider {provider.name!r} already registered")
        self._providers[provider.name] = provider
        existing = self._configs.find_one(name=provider.name)
        if existing is not None:
            return existing
        return self._configs.create(
            name=provider.name,
            kind=provider.kind,
            config={
                "patterns": provider.relevance.patterns,
                "extensions": provider.relevance.extensions,
            },
            created_at=self._clock.now(),
        )

    def provider(self, name: str) -> DataProvider:
        try:
            return self._providers[name]
        except KeyError:
            raise ProviderError(f"no provider named {name!r}") from None

    def provider_names(self) -> list[str]:
        return sorted(self._providers)

    def browse(
        self, provider_name: str, extra_filter: RelevanceFilter | None = None
    ):
        """List a provider's relevant files for the picker UI."""
        return self.provider(provider_name).list_files(extra_filter)

    # -- importing --------------------------------------------------------------------

    def import_files(
        self,
        principal: Principal,
        project_id: int,
        provider_name: str,
        file_names: Sequence[str],
        *,
        workunit_name: str,
        mode: str = "copy",
        description: str = "",
    ) -> tuple[Workunit, list[DataResource], WorkflowInstance]:
        """Import files into a new workunit (paper Figure 9).

        ``mode="copy"`` fetches bytes into the managed store and records
        checksums; ``mode="link"`` records the provider URI only.
        Returns the workunit (``pending`` until extract assignment), its
        resources, and the running import workflow instance.

        The import runs inline, inside the caller's transaction when one
        is open; :meth:`enqueue_import` is the asynchronous form.
        """
        self._validate_request(provider_name, file_names, mode)
        return self._run_import(
            principal,
            project_id,
            provider_name,
            file_names,
            workunit_name=workunit_name,
            mode=mode,
            description=description,
        )

    def _validate_request(
        self, provider_name: str, file_names: Sequence[str], mode: str
    ) -> None:
        """Reject bad requests before they are enqueued or executed."""
        if mode not in IMPORT_MODES:
            raise ValidationError(f"import mode must be copy|link, got {mode!r}")
        if not file_names:
            raise ValidationError("nothing selected for import")
        provider = self.provider(provider_name)
        for name in file_names:
            provider.find(name)

    # -- the queue path -------------------------------------------------------------

    def enqueue_import(
        self,
        principal: Principal,
        project_id: int,
        provider_name: str,
        file_names: Sequence[str],
        *,
        workunit_name: str,
        mode: str = "copy",
        description: str = "",
        job_key: str = "",
    ) -> Job:
        """Queue an import as a background job; returns the job row.

        *job_key* is the import's idempotency identity: enqueueing the
        same key twice yields one job, and a redelivered job resumes or
        compensates its first attempt instead of importing twice.  A
        fresh key is minted when omitted (each call = one new import).
        """
        self._validate_request(provider_name, file_names, mode)
        if self._queue is None:
            raise ValidationError("no job queue attached to the importer")
        job_key = job_key or token_hex(8)
        return self._queue.enqueue(
            IMPORT_JOB,
            {
                "principal": encode_principal(principal),
                "project_id": project_id,
                "provider": provider_name,
                "files": list(file_names),
                "workunit_name": workunit_name,
                "mode": mode,
                "description": description,
                "job_key": job_key,
            },
            channel=f"provider:{provider_name}",
            idempotency_key=f"import:{job_key}",
        )

    def _import_job(self, job: Job) -> dict:
        """Queue handler: run (or resume) one import job."""
        payload = job.payload
        principal = decode_principal(payload["principal"])
        job_key = payload["job_key"]
        existing = self._find_import_by_key(
            principal, payload["project_id"], job_key
        )
        if existing is not None:
            workunit, resources, instance = existing
            if instance is not None and len(resources) == len(payload["files"]):
                # First delivery finished everything but the ack (the
                # torn-ack redelivery): the import already happened.
                return {
                    "workunit_id": workunit.id,
                    "resource_ids": [r.id for r in resources],
                    "instance_id": instance.id,
                    "resumed": True,
                }
            # A killed worker left a half-imported workunit behind; the
            # compensation contract says remove it, then run afresh.
            self._abort_import(
                principal,
                workunit,
                resources,
                ImportError_(
                    f"import job {job.id} redelivered over a partial "
                    f"first attempt (attempt {job.attempts})"
                ),
            )
        workunit, resources, instance = self._run_import(
            principal,
            payload["project_id"],
            payload["provider"],
            payload["files"],
            workunit_name=payload["workunit_name"],
            mode=payload["mode"],
            description=payload["description"],
            job_key=job_key,
        )
        return {
            "workunit_id": workunit.id,
            "resource_ids": [r.id for r in resources],
            "instance_id": instance.id,
        }

    def _find_import_by_key(
        self, principal: Principal, project_id: int, job_key: str
    ) -> "tuple[Workunit, list[DataResource], WorkflowInstance | None] | None":
        """The workunit a previous delivery of this job created, if any."""
        repo = self._registry.repository(Workunit)
        for workunit in repo.find(project_id=project_id):
            if (workunit.parameters or {}).get(IMPORT_JOB_KEY_PARAM) != job_key:
                continue
            resources = self._workunits.resources_of(principal, workunit.id)
            instance = None
            for candidate in self._workflow.for_entity("workunit", workunit.id):
                if candidate.definition == IMPORT_WORKFLOW:
                    instance = candidate
                    break
            return workunit, resources, instance
        return None

    def _on_import_lease_lost(self, job: Job, result: object) -> None:
        """Compensate the losing side of a double execution.

        This worker finished an import but its lease had expired and the
        job was redelivered; whatever the *winner* recorded on the job
        row is the import of record.  If this worker's workunit is a
        different row, it is a duplicate — remove it.
        """
        if not isinstance(result, dict) or "workunit_id" not in result:
            return
        principal = decode_principal(job.payload["principal"])
        current = self._queue.get(job.id) if self._queue is not None else None
        winner_id = (current.result or {}).get("workunit_id") if current else None
        loser_id = result["workunit_id"]
        if winner_id == loser_id:
            return  # same workunit (the winner resumed this attempt's work)
        repo = self._registry.repository(Workunit)
        workunit = repo.get_or_none(loser_id)
        if workunit is None:
            return  # the winner already compensated it
        for instance in self._workflow.for_entity("workunit", loser_id):
            if instance.definition == IMPORT_WORKFLOW and instance.status == "active":
                self._workflow.fail(
                    principal, instance.id, "duplicate import discarded"
                )
        resources = self._workunits.resources_of(principal, loser_id)
        self._abort_import(
            principal,
            workunit,
            resources,
            ImportError_(f"duplicate of workunit {winner_id} (lease lost)"),
        )

    # -- the inline import ------------------------------------------------------------

    def _run_import(
        self,
        principal: Principal,
        project_id: int,
        provider_name: str,
        file_names: Sequence[str],
        *,
        workunit_name: str,
        mode: str,
        description: str,
        job_key: str = "",
    ) -> tuple[Workunit, list[DataResource], WorkflowInstance]:
        provider = self.provider(provider_name)
        files = [provider.find(name) for name in file_names]
        fetch = self._fetcher_for(provider)
        parameters = {"provider": provider_name, "mode": mode}
        if job_key:
            parameters[IMPORT_JOB_KEY_PARAM] = job_key

        # Copy mode fetches everything *before* any row is created, so a
        # provider failure mid-import leaves no half-imported workunit,
        # and a caller's transaction (a portal request) does not hold
        # the writer lock while the provider answers.
        # Each fetch runs under the provider's retry/timeout/breaker
        # policy and is size-verified against the listing, so a partial
        # read is detected (and usually healed by a retry) here, not
        # discovered later as a corrupt resource.
        with tempfile.TemporaryDirectory() as staging:
            fetched_paths: dict[str, Path] = {}
            if mode == "copy":
                for file in files:
                    fetched_paths[file.name] = fetch(
                        file, Path(staging) / file.name.replace("/", "_")
                    )

            # Everything from the workunit row onward must be atomic
            # from the caller's point of view.  The services autocommit
            # per operation, so a failure mid-loop (store ingest, a
            # resource row, the workflow start) is healed by explicit
            # compensation: created rows and store files are removed and
            # the original error propagates — never a half-imported
            # workunit.
            workunit = self._workunits.create(
                principal,
                project_id,
                workunit_name,
                description=description
                or f"import of {len(files)} file(s) from {provider_name}",
                parameters=parameters,
            )
            resources: list[DataResource] = []
            try:
                for file in files:
                    if mode == "copy":
                        fault_point("dataimport.ingest")
                        uri, checksum, size = self._store.ingest(
                            workunit.id, fetched_paths[file.name]
                        )
                        storage = "internal"
                    else:
                        uri = provider.uri_for(file)
                        checksum = ""
                        size = file.size_bytes
                        storage = "linked"
                    resources.append(
                        self._workunits.add_resource(
                            principal,
                            workunit.id,
                            file.name,
                            uri,
                            storage=storage,
                            size_bytes=size,
                            checksum=checksum,
                        )
                    )
                instance = self._workflow.start(
                    principal,
                    IMPORT_WORKFLOW,
                    entity_type="workunit",
                    entity_id=workunit.id,
                    context={"provider": provider_name, "mode": mode,
                             "files": [f.name for f in files]},
                )
            except CrashPoint:
                # A simulated process kill: a real SIGKILL cannot run
                # compensation, so neither may we — the partial state is
                # left for the queue's redelivery path to heal.
                raise
            except Exception as exc:
                self._abort_import(principal, workunit, resources, exc)
                raise

        self._audit.record(
            principal, "create", "import", workunit.id,
            f"imported {len(files)} file(s) from {provider_name} ({mode})",
        )
        self._events.publish(
            "import.awaiting_assignment",
            workunit=workunit,
            principal=principal,
            unassigned=len(resources),
        )
        return workunit, resources, instance

    def _fetcher_for(self, provider: DataProvider):
        """One provider fetch under the retry/timeout/breaker policy.

        Each provider is its own endpoint: repeated failures open that
        provider's breaker without affecting imports from healthy ones.
        """
        policy = self._provider_policy
        if self._breakers is not None:
            policy = policy.with_breaker(
                self._breakers.breaker(f"provider:{provider.name}")
            )

        def fetch_once(file: ProviderFile, destination: Path) -> Path:
            action = fault_point("dataimport.fetch")
            path = provider.fetch(file, destination)
            if action is not None and action.kind == "partial":
                data = path.read_bytes()
                path.write_bytes(data[: max(1, int(len(data) * action.fraction))])
            got = path.stat().st_size
            if file.size_bytes and got != file.size_bytes:
                raise ProviderError(
                    f"partial read of {file.name!r}: got {got} of "
                    f"{file.size_bytes} bytes"
                )
            return path

        return resilient(policy, site="dataimport.fetch", obs=self._obs)(
            fetch_once
        )

    def _abort_import(
        self,
        principal: Principal,
        workunit: Workunit,
        resources: list[DataResource],
        error: BaseException,
    ) -> None:
        """Compensate a failed import: remove everything it created.

        Resources go first (their FK to the workunit is ``restrict``),
        then the workunit row, then any bytes already ingested into the
        managed store.  Best-effort: a failing compensation step is
        logged but never masks the original import error.  Idempotent:
        rows already removed (a redelivered worker compensating the
        same partial import) are skipped, and the store directory is
        cleaned regardless — no step can strand bytes behind a missing
        row.
        """
        try:
            resource_repo = self._registry.repository(DataResource)
            for resource in reversed(resources):
                if resource_repo.get_or_none(resource.id) is not None:
                    resource_repo.delete(resource.id)
            workunit_repo = self._registry.repository(Workunit)
            if workunit_repo.get_or_none(workunit.id) is not None:
                # Another delivery may have added resources we never saw.
                for leftover in resource_repo.find(workunit_id=workunit.id):
                    resource_repo.delete(leftover.id)
                workunit_repo.delete(workunit.id)
            directory = self._store.directory_for(workunit.id)
            if directory.exists():
                shutil.rmtree(directory, ignore_errors=True)
            self._audit.record(
                principal, "delete", "import", workunit.id,
                f"import rolled back: {error}",
            )
            self._events.publish(
                "import.rolled_back",
                workunit=workunit,
                principal=principal,
                error=str(error),
            )
        except Exception as cleanup_error:  # pragma: no cover - defensive
            if self._obs is not None:
                self._obs.log.log(
                    "dataimport.compensation_failed",
                    workunit=workunit.id,
                    error=str(cleanup_error),
                )

    # -- extract assignment ---------------------------------------------------------------

    def proposals_for(
        self, principal: Principal, workunit_id: int
    ) -> list[AssignmentProposal]:
        """Best-match extract proposals for a workunit's resources."""
        workunit = self._workunits.get(principal, workunit_id)
        resources = self._workunits.resources_of(principal, workunit_id)
        extracts = self._samples.extracts_of_project(
            principal, workunit.project_id
        )
        return propose_assignments(
            {r.id: r.name for r in resources if r.extract_id is None},
            {e.id: e.name for e in extracts},
        )

    def apply_assignments(
        self,
        principal: Principal,
        workunit_id: int,
        assignments: dict[int, int] | None = None,
    ) -> Workunit:
        """Persist assignments and complete the import workflow.

        With ``assignments=None`` the best-match proposals are applied
        as-is — the demo's "just press the save button" path.
        """
        if assignments is None:
            assignments = {
                p.resource_id: p.extract_id
                for p in self.proposals_for(principal, workunit_id)
            }
        valid_extracts = {
            e.id
            for e in self._samples.extracts_of_project(
                principal,
                self._workunits.get(principal, workunit_id).project_id,
            )
        }
        for resource_id, extract_id in assignments.items():
            if extract_id not in valid_extracts:
                raise ValidationError(
                    f"extract {extract_id} does not belong to this project"
                )
            self._workunits.assign_extract(principal, resource_id, extract_id)

        for instance in self._workflow.for_entity("workunit", workunit_id):
            if instance.definition == IMPORT_WORKFLOW and instance.status == "active":
                self._workflow.fire(principal, instance.id, "save")
        workunit = self._workunits.transition(principal, workunit_id, "available")
        self._events.publish(
            "import.extracts_assigned", workunit=workunit, principal=principal
        )
        return workunit
