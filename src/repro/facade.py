"""The all-in-one entry point: :class:`BFabric`.

Wires every subsystem — storage, ORM, security, audit, annotations,
tasks, workflows, data import, applications, search, browsing, admin —
into one object, the way the FGCZ deployment runs them together.

::

    from repro import BFabric

    system = BFabric()                      # in-memory
    admin = system.bootstrap()              # first admin principal
    scientist = system.add_user(admin, login="turker", full_name="Can T.")
    project = system.projects.create(scientist, "Arabidopsis light response")

Durable deployments pass a directory::

    system = BFabric("/var/lib/bfabric")    # WAL + managed file store
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.admin.errors import ErrorRecord, ErrorRegistry
from repro.admin.maintenance import MaintenanceService
from repro.annotations.schema import annotation_models
from repro.annotations.service import AnnotationService
from repro.apps.connectors import LocalPythonConnector
from repro.apps.experiments import ExperimentService
from repro.apps.registry import ApplicationRegistry
from repro.apps.results import ResultPackager
from repro.apps.rserve import RserveConnector, two_group_analysis
from repro.audit.log import AuditLog
from repro.audit.monitor import SystemMonitor
from repro.core.entities import ALL_MODELS, User
from repro.core.services.directory import DirectoryService
from repro.core.services.projects import ProjectService
from repro.core.services.samples import SampleService
from repro.core.services.workunits import WorkunitService
from repro.dataimport.importer import DataImportService, ProviderConfig
from repro.dataimport.store import ManagedStore
from repro.errors import SchemaError
from repro.graphview.links import LinkGraph
from repro.graphview.provenance import ProvenanceTracer
from repro.admin.reports import UsageReports
from repro.obs import Observability
from repro.orm import Registry
from repro.resilience.dlq import DeadLetter, DeadLetterQueue
from repro.resilience.policies import BreakerRegistry
from repro.search.engine import SearchEngine
from repro.search.indexer import SearchIndexer
from repro.search.history import SavedQuery, SavedQueryStore
from repro.security.acl import AccessControl
from repro.security.auth import Authenticator, hash_password
from repro.security.principals import Principal, Role, SYSTEM
from repro.storage.database import Database
from repro.tasks.queue import JobQueue, queue_models
from repro.tasks.rules import install_standard_rules
from repro.tasks.service import Task, TaskService
from repro.tasks.workers import WorkerPool
from repro.util.clock import Clock, SystemClock
from repro.util.events import EventBus
from repro.workflow.engine import WorkflowEngine, workflow_models


class BFabric:
    """The integrated system."""

    def __init__(
        self,
        path: "str | Path | None" = None,
        *,
        clock: Clock | None = None,
        durable: bool = True,
        durability: "str | None" = None,
        span_sample_rate: float = 1.0,
        queue_max_depth: "int | None" = None,
    ):
        self.clock = clock or SystemClock()
        self.path = Path(path) if path is not None else None
        db_dir = self.path / "db" if self.path else None
        if db_dir is not None and (db_dir / "shard_map.json").exists():
            # Refused before anything touches the directory.
            raise SchemaError(
                f"{db_dir / 'shard_map.json'}: this data directory holds a "
                "sharded deployment; sharding was removed and there is no "
                "migration to a single database"
            )

        # One observability hub shared by every subsystem, so a portal
        # request traces through search, storage, and the WAL, and all
        # layers report into the same metrics registry.
        # *span_sample_rate* tames span-log volume on busy deployments:
        # error and over-budget spans always land, OK spans are sampled.
        self.obs = Observability(
            clock=self.clock, span_sample_rate=span_sample_rate
        )
        self.db = Database(
            db_dir, durable=durable, durability=durability, obs=self.obs
        )
        self.registry = Registry(self.db)
        self.events = EventBus(obs=self.obs)
        self.monitor = SystemMonitor(self.db)
        self.audit = AuditLog(self.db, clock=self.clock)

        # Schema: core entities first (FK targets), then subsystem models.
        self.registry.register_all(ALL_MODELS)
        self.registry.register_all(annotation_models())
        self.registry.register(Task)
        self.registry.register_all(workflow_models())
        self.registry.register(ProviderConfig)
        self.registry.register(SavedQuery)
        self.registry.register(ErrorRecord)
        self.registry.register(DeadLetter)
        self.registry.register_all(queue_models())

        # Resilience: failed event deliveries persist as dead letters,
        # and one breaker registry is shared by the importer and the
        # application layer so the same endpoint always means the same
        # breaker (states surface on /admin/metrics).
        self.dlq = DeadLetterQueue(self.registry, clock=self.clock, obs=self.obs)
        self.events.attach_dlq(self.dlq)
        self.breakers = BreakerRegistry(clock=self.clock, obs=self.obs)

        # The durable job queue lives in the same database as the domain
        # rows, so background work inherits WAL durability, MVCC
        # introspection and replication.  Exhausted jobs stay in the
        # job table as `dead` with their durable payload, which is what
        # makes `repro queue retry` work from a fresh process.
        # *queue_max_depth* bounds the runnable backlog: enqueues past it
        # shed with QueueSaturated instead of queueing silently.
        self.queue = JobQueue(
            self.registry,
            clock=self.clock,
            obs=self.obs,
            max_depth=queue_max_depth,
        )
        self._pools: list[WorkerPool] = []

        self.acl = AccessControl(self.db)
        self.auth = Authenticator(self.db, clock=self.clock)
        self.directory = DirectoryService(
            self.registry, audit=self.audit, clock=self.clock
        )
        self.projects = ProjectService(
            self.registry, audit=self.audit, acl=self.acl, events=self.events,
            clock=self.clock,
        )
        self.annotations = AnnotationService(
            self.registry, audit=self.audit, events=self.events, clock=self.clock
        )
        self.samples = SampleService(
            self.registry, audit=self.audit, acl=self.acl,
            annotations=self.annotations, events=self.events, clock=self.clock,
        )
        self.workunits = WorkunitService(
            self.registry, audit=self.audit, acl=self.acl, events=self.events,
            clock=self.clock,
        )
        self.tasks = TaskService(self.registry, audit=self.audit, clock=self.clock)
        self.workflow = WorkflowEngine(
            self.registry, audit=self.audit, events=self.events,
            clock=self.clock, obs=self.obs,
        )
        if self.path:
            store_dir = self.path / "store"
            self._store_tmp = None
        else:
            # In-memory systems get a throwaway store that vanishes with
            # the instance instead of littering the working directory.
            import tempfile

            self._store_tmp = tempfile.TemporaryDirectory(
                prefix="bfabric-store-"
            )
            store_dir = Path(self._store_tmp.name)
        self.store = ManagedStore(store_dir)
        self.imports = DataImportService(
            self.registry,
            workunits=self.workunits,
            samples=self.samples,
            workflow=self.workflow,
            store=self.store,
            audit=self.audit,
            events=self.events,
            clock=self.clock,
            obs=self.obs,
            breakers=self.breakers,
            queue=self.queue,
        )
        from repro.dataimport.access import ResourceAccessor

        self.access = ResourceAccessor(self.store, self.imports)
        self.applications = ApplicationRegistry(
            self.registry, audit=self.audit, events=self.events, clock=self.clock,
            obs=self.obs, breakers=self.breakers,
        )
        self.experiments = ExperimentService(
            self.registry,
            applications=self.applications,
            workunits=self.workunits,
            samples=self.samples,
            workflow=self.workflow,
            store=self.store,
            audit=self.audit,
            acl=self.acl,
            events=self.events,
            clock=self.clock,
            access=self.access,
            queue=self.queue,
        )
        self.results = ResultPackager(self.workunits, self.store)
        self.search = SearchEngine(acl=self.acl, obs=self.obs)
        # The one row -> document mapping; it follows the commit feed and
        # builds the index on first use.
        self.indexer = SearchIndexer(self.db, self.search, self.store)
        self.saved_queries = SavedQueryStore(self.registry, clock=self.clock)
        self.links = LinkGraph(self.db)
        self.provenance = ProvenanceTracer(self.db)
        self.reports = UsageReports(self.db)
        self.errors = ErrorRegistry(self.registry, clock=self.clock)
        self.maintenance = MaintenanceService(
            self.db, audit=self.audit, search=self.search, workflow=self.workflow
        )

        install_standard_rules(self.events, self.tasks)
        self._install_default_connectors()

    # -- bootstrap --------------------------------------------------------------------

    def bootstrap(
        self,
        *,
        login: str = "admin",
        full_name: str = "System Administrator",
        password: str = "admin",
    ) -> Principal:
        """Create (or fetch) the first admin user and return the principal."""
        existing = self.directory.user_by_login(login)
        if existing is not None:
            return self.directory.principal_for(existing)
        row = self.db.insert(
            User.__table__,
            {
                "login": login,
                "full_name": full_name,
                "role": "admin",
                "password_hash": hash_password(password),
                "email": "",
                "active": True,
                "created_at": self.clock.now(),
                "institute_id": None,
            },
        )
        self.audit.record(SYSTEM, "create", "user", row["id"], f"bootstrap {login}")
        return Principal(user_id=row["id"], login=login, role=Role.ADMIN)

    def add_user(
        self,
        actor: Principal,
        *,
        login: str,
        full_name: str,
        role: str = "scientist",
        password: str = "",
        email: str = "",
        institute_id: int | None = None,
    ) -> Principal:
        """Create a user and return their acting principal."""
        user = self.directory.create_user(
            actor,
            login=login,
            full_name=full_name,
            role=role,
            password=password,
            email=email,
            institute_id=institute_id,
        )
        return self.directory.principal_for(user)

    def recover(self) -> dict[str, int]:
        """Load snapshot + WAL of a durable deployment.

        Also restores the persisted metric state, so counters and
        latency histograms accumulate across process restarts.
        """
        stats = self.db.recover()
        if self.path is not None:
            self.obs.load(self.path / "obs")
        return stats

    def snapshot(self):
        """Open a lock-free MVCC read view over the whole deployment.

        Shorthand for :meth:`Database.snapshot`; use as a context
        manager so pruning can reclaim old row versions promptly::

            with system.snapshot() as snap:
                projects = snap.query("project").all()
        """
        return self.db.snapshot()

    def start_workers(
        self,
        *,
        workers: int = 2,
        lease_seconds: float = 30.0,
        name: str = "pool",
        **pool_options: Any,
    ) -> WorkerPool:
        """Start a worker pool draining the job queue.

        The workers run what ``enqueue_import`` and
        ``enqueue_execution`` queue, with crash-safe redelivery and
        per-provider concurrency limits; ``import_files`` and
        non-deferred experiment runs stay inline.  Stopped
        automatically (with a drain) by :meth:`close`.
        """
        pool = WorkerPool(
            self.queue,
            workers=workers,
            lease_seconds=lease_seconds,
            name=name,
            clock=self.clock,
            obs=self.obs,
            **pool_options,
        ).start()
        self._pools.append(pool)
        return pool

    def stop_workers(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop every pool this facade started."""
        for pool in self._pools:
            if pool.is_running():
                pool.stop(drain=drain, timeout=timeout)
        self._pools = []

    def close(self) -> None:
        self.stop_workers()
        if self.path is not None:
            self.obs.save(self.path / "obs")
        self.db.close()
        if self._store_tmp is not None:
            self._store_tmp.cleanup()
            self._store_tmp = None

    def __enter__(self) -> "BFabric":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- deployment statistics (the Final-Remark table) ----------------------------------

    def deployment_statistics(self) -> dict[str, int]:
        """Object counts in the paper's Final-Remark layout."""
        return {
            "Users": self.db.count("user"),
            "Projects": self.db.count("project"),
            "Institutes": self.db.count("institute"),
            "Organizations": self.db.count("organization"),
            "Samples": self.db.count("sample"),
            "Extracts": self.db.count("extract"),
            "Data Resources": self.db.count("data_resource"),
            "Workunits": self.db.count("workunit"),
        }

    # -- search -------------------------------------------------------------------------

    def reindex_all(self) -> int:
        """Rebuild the full-text index from the database (maintenance).

        Never needed for correctness: the index follows the commit feed
        and builds itself on first use.  Returns the document count.
        """
        return self.indexer.rebuild()

    # -- default connectors ------------------------------------------------------------------

    def _install_default_connectors(self) -> None:
        """Install the simulated Rserve (with the demo's two-group
        analysis deployed) and a local Python connector."""
        rserve = RserveConnector()
        rserve.register_script("two_group_analysis", two_group_analysis)
        self.applications.register_connector(rserve)
        self.applications.register_connector(LocalPythonConnector())

    # -- convenience -----------------------------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """Everything the admin dashboard shows."""
        return {
            "deployment": self.deployment_statistics(),
            "storage": self.db.statistics(),
            "search": self.search.statistics(),
            "audit_entries": self.audit.count(),
            "observability": self.obs.statistics(),
        }
