"""Exception hierarchy for the B-Fabric reproduction.

All exceptions raised by the library derive from :class:`BFabricError` so
that callers can catch library failures with a single ``except`` clause.
Subsystems add their own subclasses; the ones defined here are shared
across packages.
"""

from __future__ import annotations


class BFabricError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Storage-layer errors
# ---------------------------------------------------------------------------


class StorageError(BFabricError):
    """Base class for errors raised by the embedded storage engine."""


class SchemaError(StorageError):
    """A table or column definition is invalid or used inconsistently."""


class ConstraintViolation(StorageError):
    """A write violated a declared constraint (PK, unique, FK, NOT NULL)."""

    def __init__(self, message: str, *, table: str = "", constraint: str = ""):
        super().__init__(message)
        self.table = table
        self.constraint = constraint


class PrimaryKeyViolation(ConstraintViolation):
    """Insert reused an existing primary key."""


class UniqueViolation(ConstraintViolation):
    """A unique index rejected a duplicate value."""


class ForeignKeyViolation(ConstraintViolation):
    """A referenced row does not exist, or a referencing row blocks delete."""


class NotNullViolation(ConstraintViolation):
    """A required column received ``None``."""


class CheckViolation(ConstraintViolation):
    """A row failed a declared CHECK predicate."""


class RowNotFound(StorageError):
    """Lookup by primary key found no row."""

    def __init__(self, table: str, key: object):
        super().__init__(f"no row with key {key!r} in table {table!r}")
        self.table = table
        self.key = key


class TransactionError(StorageError):
    """A transaction was used outside its legal lifecycle."""


class WalCorruption(StorageError):
    """The write-ahead log failed its integrity checks during recovery."""


class WalWriteError(StorageError):
    """Appending a commit record to the write-ahead log failed.

    Raised by the database while the writer lock is still held so the
    transaction can undo its in-memory changes; ``__cause__`` carries
    the underlying I/O or encoding error.
    """


# ---------------------------------------------------------------------------
# Domain errors
# ---------------------------------------------------------------------------


class DomainError(BFabricError):
    """Base class for domain/service-layer errors."""


class ValidationError(DomainError):
    """User input failed validation.

    ``field_errors`` maps field names to human-readable problems so that
    form layers can attach messages to the offending widgets.
    """

    def __init__(self, message: str, field_errors: dict[str, str] | None = None):
        super().__init__(message)
        self.field_errors = dict(field_errors or {})


class EntityNotFound(DomainError):
    """A service was asked to operate on a nonexistent entity."""

    def __init__(self, entity_type: str, entity_id: object):
        super().__init__(f"{entity_type} {entity_id!r} does not exist")
        self.entity_type = entity_type
        self.entity_id = entity_id


class StateError(DomainError):
    """An operation is not allowed in the entity's current state."""


class AccessDenied(BFabricError):
    """The acting principal lacks the permission for the operation."""

    def __init__(self, message: str, *, principal: str = "", permission: str = ""):
        super().__init__(message)
        self.principal = principal
        self.permission = permission


class AuthenticationError(BFabricError):
    """Login failed or the session is invalid/expired."""


# ---------------------------------------------------------------------------
# Resilience errors
# ---------------------------------------------------------------------------


class ResilienceError(BFabricError):
    """Base class for the fault-tolerance layer's own failures."""


class TimeoutExceeded(ResilienceError):
    """A guarded call ran longer than its :class:`Timeout` allows."""

    def __init__(self, message: str, *, site: str = "", seconds: float = 0.0):
        super().__init__(message)
        self.site = site
        self.seconds = seconds


class CircuitOpenError(ResilienceError):
    """A circuit breaker rejected the call without attempting it.

    Raised while the breaker is *open* (the endpoint failed repeatedly
    and its cooldown has not elapsed) so callers fail fast instead of
    piling onto a broken dependency.
    """

    def __init__(self, message: str, *, endpoint: str = ""):
        super().__init__(message)
        self.endpoint = endpoint


class QueueError(ResilienceError):
    """Base class for durable job-queue failures."""


class QueueSaturated(QueueError):
    """Enqueue rejected: the runnable backlog reached ``max_depth``.

    Backpressure, not an outage — producers should retry later or shed
    their own load.  ``depth`` carries the backlog size at rejection.
    """

    def __init__(self, message: str, *, depth: int = 0):
        super().__init__(message)
        self.depth = depth


class LeaseLost(QueueError):
    """A worker acted on a job whose lease it no longer holds.

    Raised by ack/nack/heartbeat when the visibility timeout expired and
    the job was redelivered (or completed) elsewhere.  The losing worker
    must discard its side effects, not report success.
    """

    def __init__(self, message: str, *, job_id: int = 0):
        super().__init__(message)
        self.job_id = job_id


class FaultInjected(BFabricError):
    """An error deliberately raised by the fault-injection harness."""


class CrashPoint(FaultInjected):
    """A simulated process kill at a registered crash site.

    The torture driver treats everything after this exception as
    unreachable: the 'crashed' database object is abandoned and recovery
    is exercised on a fresh one.
    """


# ---------------------------------------------------------------------------
# Replication errors
# ---------------------------------------------------------------------------


class ReplicationError(BFabricError):
    """Base class for WAL-shipping replication failures."""


class ReplicationProtocolError(ReplicationError):
    """A wire frame failed its length/CRC/handshake checks.

    Raised by the framing layer on a corrupt or out-of-sequence frame;
    the stream loop treats it as a connection loss and resynchronises
    from the handshake.
    """


class ReplicaLagExceeded(ReplicationError):
    """A replica's staleness bound was violated.

    Raised by ``Replica.wait_for`` on timeout and used by the routing
    facade to divert reads back to the primary.
    """

    def __init__(self, message: str, *, lag_seqs: int = 0):
        super().__init__(message)
        self.lag_seqs = lag_seqs


class NotPromoted(ReplicationError):
    """A write path was exercised on a replica that is still read-only."""


# ---------------------------------------------------------------------------
# Workflow errors
# ---------------------------------------------------------------------------


class WorkflowError(BFabricError):
    """Base class for workflow-engine errors."""


class WorkflowDefinitionError(WorkflowError):
    """A workflow definition is structurally invalid."""


class InvalidActionError(WorkflowError):
    """The requested action is not available in the current step."""

    def __init__(self, action: str, step: str, available: list[str] | None = None):
        avail = ", ".join(available or []) or "none"
        super().__init__(
            f"action {action!r} is not available in step {step!r} (available: {avail})"
        )
        self.action = action
        self.step = step
        self.available = list(available or [])


class WorkflowConditionFailed(WorkflowError):
    """An action's guard condition rejected the transition."""


class WorkflowTransitionFailed(WorkflowError):
    """A transition's functions kept failing after bounded retries.

    The instance has been moved to the terminal ``failed`` state; its
    context carries the full per-attempt error chain under
    ``error_chain``.  ``attempts`` repeats that chain here for callers
    that never look at the instance.
    """

    def __init__(self, message: str, *, attempts: "list[str] | None" = None):
        super().__init__(message)
        self.attempts = list(attempts or [])


# ---------------------------------------------------------------------------
# Integration errors
# ---------------------------------------------------------------------------


class ImportError_(BFabricError):
    """A data import failed (provider unreachable, checksum mismatch, ...).

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`ImportError`.
    """


class ProviderError(ImportError_):
    """A data provider could not list or deliver files."""


class ConnectorError(BFabricError):
    """An application connector failed to stage, launch, or collect."""


class ApplicationError(BFabricError):
    """A registered application rejected its input or crashed."""


class SearchError(BFabricError):
    """The search engine rejected a query or failed to index a document."""


class QuerySyntaxError(SearchError):
    """The advanced-search query string could not be parsed."""
