"""Deterministic fault injection at named sites.

Production code is sprinkled with :func:`fault_point` calls at its
integration edges (the WAL write path, provider fetches, connector runs,
workflow transitions).  With no plan installed a fault point is a single
global read — effectively free.  Tests and the torture driver install a
:class:`FaultPlan` that scripts *exactly* which invocation of which site
fails, and how::

    plan = FaultPlan([
        Fault("wal.write", kind="torn_write", at_call=3, fraction=0.4),
        Fault("connector.run", kind="error", error=ConnectorError,
              probability=0.25, times=-1),
    ], seed=2010)
    with inject(plan):
        ...

Fault kinds:

``error``
    Raise ``fault.error`` (default :class:`~repro.errors.FaultInjected`)
    out of the fault point.  ``error=CrashPoint`` simulates a kill.
``latency``
    Sleep ``latency_s`` seconds inside the fault point, then continue.
``torn_write`` / ``partial`` / ``drop`` / ``duplicate``
    Returned to the call site as a :class:`FaultAction`; only sites that
    understand them react (the WAL tears its append after ``fraction``
    of the bytes; the importer truncates a fetched file to ``fraction``
    of its size; the replication stream swallows or redelivers a
    frame).  Sites that receive an action kind they do not implement
    ignore it.

Scheduling is by exact step (``at_call``, 1-based per site) or seeded
probability per hit; both are deterministic for a given plan seed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import FaultInjected

#: Every site wired into production code, with what the site supports.
REGISTERED_SITES: dict[str, str] = {
    "wal.append": "WAL append entry, before any byte is written (error)",
    "wal.write": "WAL file write (error, torn_write)",
    "wal.after_write": "after WAL write+flush, before fsync (error)",
    "wal.after_fsync": "after the WAL fsync returned (error)",
    "dataimport.fetch": "provider fetch of one file (error, latency, partial)",
    "dataimport.ingest": "managed-store ingest of one fetched file (error)",
    "connector.run": "application connector execution (error, latency)",
    "workflow.transition": "workflow transition executor (error)",
    "replication.send": (
        "primary-side frame send to one replica (error, latency, drop,"
        " torn_write)"
    ),
    "replication.recv": (
        "replica-side frame receive (error, latency, drop, duplicate)"
    ),
    "replication.apply": "replica-side apply of one shipped commit (error)",
    "queue.claim": (
        "job-queue claim after candidate selection, before any lease is"
        " written — fires only when the claim would return work, so"
        " at_call counts real deliveries, not idle polls (error)"
    ),
    "queue.ack": (
        "job-queue ack before the durable done-transition — a kill here"
        " is the torn-ack scenario: work done, job still leased (error)"
    ),
    "queue.heartbeat": (
        "job-queue lease extension, before the expiry is pushed out"
        " (error)"
    ),
    "worker.run": (
        "worker-pool job execution, after claim and before the handler"
        " runs (error, latency)"
    ),
}

#: The WAL crash sites the torture driver kills the database at.
WAL_SITES = ("wal.append", "wal.write", "wal.after_write", "wal.after_fsync")

#: The worker-kill sites `repro torture --ingest` kills at: every point
#: of the lease protocol plus the import work running under it.
INGEST_SITES = (
    "queue.claim",
    "worker.run",
    "dataimport.fetch",
    "dataimport.ingest",
    "queue.heartbeat",
    "queue.ack",
)


@dataclass
class Fault:
    """One scripted fault (see module docstring for the kinds)."""

    site: str
    kind: str = "error"
    #: Fire on the Nth hit of the site (1-based); ``None`` = use probability.
    at_call: int | None = None
    #: Per-hit firing probability when ``at_call`` is None (seeded rng).
    probability: float = 0.0
    #: Maximum number of firings; -1 means unlimited.
    times: int = 1
    #: Exception class or zero-arg factory for ``kind="error"``.
    error: "type[BaseException] | Callable[[], BaseException] | None" = None
    latency_s: float = 0.0
    #: Byte/size fraction for ``torn_write`` / ``partial``.
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.site not in REGISTERED_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"registered: {sorted(REGISTERED_SITES)}"
            )
        if self.kind not in (
            "error",
            "latency",
            "torn_write",
            "partial",
            "drop",
            "duplicate",
        ):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 < self.fraction < 1.0 and self.kind in ("torn_write", "partial"):
            raise ValueError("fraction must be strictly between 0 and 1")

    def make_error(self) -> BaseException:
        if self.error is None:
            return FaultInjected(f"injected fault at {self.site}")
        if isinstance(self.error, type):
            return self.error(f"injected fault at {self.site}")
        return self.error()


@dataclass(frozen=True)
class FaultAction:
    """What a fired fault asks the site to do (site-interpreted kinds)."""

    site: str
    kind: str
    fraction: float = 0.5


class FaultPlan:
    """A deterministic schedule of faults over the registered sites."""

    def __init__(self, faults: "list[Fault] | tuple[Fault, ...]", *, seed: int = 0):
        import random

        self.faults = list(faults)
        self.seed = seed
        self._rng = random.Random(seed)
        self._hits: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self._lock = threading.Lock()

    def hits(self, site: str) -> int:
        """How many times *site* has been reached under this plan."""
        with self._lock:
            return self._hits.get(site, 0)

    def fired(self) -> int:
        """Total faults fired so far."""
        with self._lock:
            return sum(self._fired.values())

    def check(self, site: str) -> Fault | None:
        """Record a hit of *site*; return the fault to fire, if any."""
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for index, fault in enumerate(self.faults):
                if fault.site != site:
                    continue
                used = self._fired.get(index, 0)
                if fault.times >= 0 and used >= fault.times:
                    continue
                if fault.at_call is not None:
                    due = hit == fault.at_call
                elif fault.probability > 0:
                    due = self._rng.random() < fault.probability
                else:
                    due = False
                if due:
                    self._fired[index] = used + 1
                    return fault
            return None


#: The process-wide active plan.  Installed/removed via :func:`inject`;
#: ``None`` (the overwhelmingly common case) makes fault points free.
_ACTIVE: FaultPlan | None = None
_INSTALL_LOCK = threading.Lock()


def install(plan: FaultPlan | None) -> None:
    """Install *plan* globally (``None`` disables injection)."""
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = plan


def active_plan() -> FaultPlan | None:
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager installing *plan* for the duration of the block."""
    install(plan)
    try:
        yield plan
    finally:
        install(None)


def fault_point(site: str) -> FaultAction | None:
    """Declare a fault site; called from production code.

    Returns ``None`` almost always.  When the active plan fires a fault
    here: ``error`` faults raise, ``latency`` faults sleep then return
    ``None``, and site-interpreted kinds (``torn_write``, ``partial``)
    are handed back as a :class:`FaultAction` for the site to apply.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    fault = plan.check(site)
    if fault is None:
        return None
    if fault.kind == "error":
        raise fault.make_error()
    if fault.kind == "latency":
        time.sleep(fault.latency_s)
        return None
    return FaultAction(site=site, kind=fault.kind, fraction=fault.fraction)
