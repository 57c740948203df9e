"""Replica side of WAL shipping: apply the stream, serve snapshots.

A :class:`Replica` wraps a locally constructed system (a
:class:`~repro.facade.BFabric` instance or a bare
:class:`~repro.storage.database.Database`) whose schemas match the
primary's, and keeps it converged by applying shipped commit records
through the storage engine's replay path.  All replica state lives in
the *primary's* commit-sequence space, so a sequence token handed out by
the primary (``db.committed`` after a write) is directly meaningful to
:meth:`wait_for` here — that is what gives sessions read-your-writes
across the wire.

The stream loop is wrapped in the resilience layer: reconnects go
through a :class:`~repro.resilience.policies.RetryPolicy` and a circuit
breaker keyed on the primary's address, so a dead primary degrades into
periodic cheap probes instead of a tight reconnect spin.

``promote()`` turns the replica into a writable primary: the stream is
drained (in-flight frames get their chance to apply, hard-capped at the
drain timeout), the WAL's torn tail is truncated, and the underlying
database continues from its applied sequence — under a *fresh* history
id, because post-promotion commits are a new lineage that replicas of
the old primary must bootstrap into rather than resume.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.errors import (
    ReplicaLagExceeded,
    ReplicationError,
    ReplicationProtocolError,
)
from repro.obs.tracing import TraceContext
from repro.replication import protocol
from repro.resilience.faults import fault_point
from repro.resilience.policies import (
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
    resilient,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.storage.database import Database
    from repro.storage.snapshot import Snapshot


class Replica:
    """A read replica fed by one primary's WAL stream."""

    def __init__(
        self,
        system: Any,
        primary_address: tuple[str, int],
        *,
        name: str = "",
        max_lag: int | None = None,
        obs: "Observability | None" = None,
        recv_timeout: float = 0.2,
        reconnect_delay: float = 0.1,
    ):
        """*system* is a facade (anything with a ``.db``; its search
        index follows the applied commits through the commit feed) or a
        bare :class:`Database`.  *max_lag* bounds
        staleness in commit sequences: :meth:`snapshot` refuses to serve
        (raising :class:`ReplicaLagExceeded`) when the replica trails
        the primary by more, which is the signal the routing facade uses
        to fall back to the primary."""
        self.system = system
        self.db: "Database" = getattr(system, "db", system)
        self.obs = obs if obs is not None else self.db.obs
        self.primary_address = primary_address
        self.name = name or f"replica-{id(self) & 0xFFFF:04x}"
        self.max_lag = max_lag
        self.recv_timeout = recv_timeout
        self.reconnect_delay = reconnect_delay
        self._mu = threading.Lock()
        self._applied_cv = threading.Condition(self._mu)
        self._applied_seq = 0
        self._primary_seq = 0
        self._connected = False
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._drain_deadline = 0.0
        # Hard ceiling on the drain: frame arrivals extend the deadline
        # only up to this, so a still-streaming primary cannot stall
        # promotion forever.
        self._drain_cap = float("inf")
        self._thread: threading.Thread | None = None
        # The live stream connection, for stop() to close.
        self._conn: protocol.Connection | None = None
        self._promoted = False
        self._applied_frames = 0
        self._bootstraps = 0
        self._guard_stream()
        metrics = self.obs.metrics
        self._m_applied = metrics.counter(
            "replication_applied_total", "Commit frames applied by this replica"
        ).labels()
        self._m_duplicates = metrics.counter(
            "replication_duplicate_frames_total",
            "Redelivered frames skipped by the sequence check",
        ).labels()
        self._m_gaps = metrics.counter(
            "replication_gap_resyncs_total",
            "Stream gaps detected via the chain rule (forced resync)",
        ).labels()
        self._g_applied_seq = metrics.gauge(
            "replication_applied_seq", "Last commit sequence applied locally"
        ).labels()
        self._g_lag = metrics.gauge(
            "replication_replica_lag_seqs",
            "This replica's view of its own lag (primary seq - applied)",
        ).labels()

    def _guard_stream(self) -> None:
        """Retries and a fresh breaker for the current primary."""
        host, port = self.primary_address
        policy = ResiliencePolicy(
            retry=RetryPolicy(
                max_attempts=3, base_delay=0.05, max_delay=0.5, seed=7
            ),
            breaker=CircuitBreaker(
                f"replication:{host}:{port}",
                failure_threshold=5,
                cooldown=1.0,
                obs=self.obs,
            ),
        )
        self._guarded_stream = resilient(
            policy, site="replication.stream", obs=self.obs
        )(self._connect_and_stream)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Replica":
        if self._thread is not None:
            raise ReplicationError(f"replica {self.name!r} already started")
        self._applied_seq = self.db.committed_seq
        self._thread = threading.Thread(
            target=self._stream_loop, name=f"replica-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        conn = self._conn
        if conn is not None:
            # Closing shuts the socket down, which wakes a blocked recv()
            # at once instead of after its timeout.
            conn.close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _stream_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._guarded_stream()
            except Exception as exc:
                self.obs.log.log(
                    "replication.stream_down",
                    replica=self.name,
                    error=str(exc),
                )
            with self._mu:
                self._connected = False
            if self._draining.is_set():
                return  # promote() is waiting; do not reconnect
            self._stop.wait(self.reconnect_delay)

    def _connect_and_stream(self) -> None:
        """One connection's lifetime: handshake, then apply until EOF."""
        if self._stop.is_set():
            return  # a retry after stop() closed the connection
        sock = socket.create_connection(self.primary_address, timeout=2.0)
        sock.settimeout(self.recv_timeout)
        conn = self._conn = protocol.Connection(sock)
        try:
            with self._mu:
                applied = self._applied_seq
            conn.send(
                protocol.hello(applied, self.name, history=self.db.history_id)
            )
            with self._mu:
                self._connected = True
            while not self._stop.is_set():
                if (
                    self._draining.is_set()
                    and time.monotonic() > self._drain_deadline
                ):
                    return
                try:
                    message = conn.recv()
                except socket.timeout:
                    continue
                if message is None:
                    if self._stop.is_set():
                        return  # stop() closed the connection
                    raise ReplicationError("primary closed the stream")
                self._handle_message(conn, message)
        finally:
            self._conn = None
            with self._mu:
                self._connected = False
            conn.close()

    def _handle_message(
        self, conn: protocol.Connection, message: dict[str, Any]
    ) -> None:
        kind = message.get("type")
        if kind == "resume":
            return
        if kind == "snapshot":
            seq = int(message["seq"])
            versions = message.get("versions")
            self.db.load_replicated_snapshot(
                message["tables"],
                seq=seq,
                history=str(message.get("history") or "") or None,
                versions=versions if isinstance(versions, dict) else None,
            )
            self._note_applied(seq, primary_seq=seq)
            self._bootstraps += 1
            conn.send(protocol.ack(seq))
            return
        if kind == "heartbeat":
            seq = int(message["seq"])
            with self._mu:
                self._primary_seq = max(self._primary_seq, seq)
                applied = self._applied_seq
                self._g_lag.set(max(0, self._primary_seq - applied))
            if seq > applied:
                # Nothing in flight can explain the difference — the
                # final frame(s) were lost; resync from our position.
                self._m_gaps.inc()
                raise ReplicationProtocolError(
                    f"heartbeat at seq {seq} but applied is {applied}: "
                    "stream dropped frames"
                )
            conn.send(protocol.ack(applied))
            return
        if kind == "commit":
            fault_point("replication.apply")
            seq = int(message["seq"])
            prev = int(message["prev"])
            with self._mu:
                applied = self._applied_seq
            if seq <= applied:
                self._m_duplicates.inc()
                conn.send(protocol.ack(applied))
                return
            if prev > applied:
                self._m_gaps.inc()
                raise ReplicationProtocolError(
                    f"commit chain broken: frame prev={prev} but applied "
                    f"is {applied} (lost frame)"
                )
            trace = TraceContext.from_dict(message.get("trace"))
            if trace is not None:
                # The frame carries the originating commit's trace: the
                # apply span joins that trace across the process hop
                # (its parent_id names a span the primary holds).
                with self.obs.tracer.span(
                    "replication.apply",
                    parent=trace,
                    seq=seq,
                    replica=self.name,
                ):
                    self.db.apply_replicated_commit(
                        message["record"], seq=seq, trace=trace
                    )
            else:
                self.db.apply_replicated_commit(message["record"], seq=seq)
            self._m_applied.inc()
            self._applied_frames += 1
            self._note_applied(seq)
            conn.send(protocol.ack(seq))
            return
        raise ReplicationProtocolError(f"unexpected message type {kind!r}")

    def _note_applied(self, seq: int, *, primary_seq: int | None = None) -> None:
        with self._mu:
            if seq > self._applied_seq:
                self._applied_seq = seq
            self._primary_seq = max(
                self._primary_seq,
                seq if primary_seq is None else primary_seq,
            )
            self._g_applied_seq.set(self._applied_seq)
            self._g_lag.set(max(0, self._primary_seq - self._applied_seq))
            if self._draining.is_set():
                # Receiving frames extends the drain window — but never
                # past the cap, or a primary that keeps streaming would
                # stall promotion indefinitely.
                self._drain_deadline = min(
                    time.monotonic() + self._drain_grace, self._drain_cap
                )
            self._applied_cv.notify_all()

    # -- reads -------------------------------------------------------------

    @property
    def applied_seq(self) -> int:
        with self._mu:
            return self._applied_seq

    @property
    def connected(self) -> bool:
        with self._mu:
            return self._connected

    @property
    def promoted(self) -> bool:
        return self._promoted

    def lag(self) -> int:
        """Commit sequences between the primary's last shipped and us."""
        with self._mu:
            return max(0, self._primary_seq - self._applied_seq)

    def healthy(self, max_lag: int | None = None) -> bool:
        """Connected (or promoted) and within the staleness bound."""
        bound = self.max_lag if max_lag is None else max_lag
        if self._promoted:
            return True
        if not self.connected:
            return False
        return bound is None or self.lag() <= bound

    def snapshot(self) -> "Snapshot":
        """Lock-free MVCC read view over the replica's database.

        Raises :class:`ReplicaLagExceeded` when the replica is
        disconnected or trails the primary beyond ``max_lag`` — the
        router catches this and serves the read from the primary.
        """
        if not self._promoted and self.max_lag is not None:
            if not self.connected:
                raise ReplicaLagExceeded(
                    f"replica {self.name!r} is disconnected", lag_seqs=-1
                )
            lag = self.lag()
            if lag > self.max_lag:
                raise ReplicaLagExceeded(
                    f"replica {self.name!r} lags {lag} seqs "
                    f"(bound {self.max_lag})",
                    lag_seqs=lag,
                )
        return self.db.snapshot()

    def wait_for(self, seq: int, timeout: float = 5.0) -> int:
        """Block until *seq* is applied locally (read-your-writes).

        Returns the applied sequence; raises
        :class:`ReplicaLagExceeded` on timeout.
        """
        deadline = time.monotonic() + timeout
        with self._mu:
            while self._applied_seq < seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReplicaLagExceeded(
                        f"replica {self.name!r} did not reach seq {seq} "
                        f"within {timeout:g}s (applied {self._applied_seq})",
                        lag_seqs=seq - self._applied_seq,
                    )
                self._applied_cv.wait(remaining)
            return self._applied_seq

    # -- promotion ---------------------------------------------------------

    _drain_grace = 0.3

    def promote(self, *, drain_timeout: float = 1.0) -> "Database":
        """Become the writable primary.

        Drains the stream first — frames already in flight keep applying
        until the connection goes quiet for :attr:`_drain_grace` seconds
        or ``drain_timeout`` elapses in total, whichever comes first —
        then stops the stream for good, truncates any torn WAL tail, and
        marks the replica promoted.  The total drain is hard-capped at
        ``drain_timeout`` even while frames keep arriving, and promotion
        fails loudly (:class:`ReplicationError`) if the stream thread is
        somehow still applying after the cap: local writes must never
        interleave with a live replication stream.  The returned
        database accepts writes; its committed sequence continues the
        old primary's, but under a *fresh* history id, so replicas of
        the old primary bootstrap rather than resume when they re-join.
        """
        if self._promoted:
            return self.db
        start = time.monotonic()
        with self._mu:
            self._drain_cap = start + drain_timeout
            self._drain_deadline = min(
                start + self._drain_grace, self._drain_cap
            )
        self._draining.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=drain_timeout + 2.0)
        self._stop.set()
        if thread is not None and thread.is_alive():
            # _stop is now set; give the loop one recv timeout to notice.
            thread.join(timeout=max(1.0, self.recv_timeout * 5))
            if thread.is_alive():
                raise ReplicationError(
                    f"replica {self.name!r}: stream thread still applying "
                    "frames after the drain cap; refusing to promote over "
                    "a live stream"
                )
        if self.db.wal is not None:
            self.db.wal.truncate_torn_tail()
        # Post-promotion commits are a new lineage: the old primary (if
        # it comes back) and this database will assign the same sequence
        # numbers to different commits from here on.
        self.db.new_history()
        self._promoted = True
        self.obs.log.log(
            "replication.promote", replica=self.name, seq=self.applied_seq
        )
        return self.db

    def rejoin(self, primary_address: tuple[str, int]) -> None:
        """Point a (stopped or orphaned) replica at a new primary."""
        self.stop()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self.primary_address = primary_address
        self._guard_stream()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._drain_deadline = 0.0
        self._drain_cap = float("inf")
        self._thread = None
        self.start()

    # -- introspection -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        with self._mu:
            return {
                "name": self.name,
                "primary": f"{self.primary_address[0]}:{self.primary_address[1]}",
                "connected": self._connected,
                "promoted": self._promoted,
                "applied_seq": self._applied_seq,
                "primary_seq": self._primary_seq,
                "lag_seqs": max(0, self._primary_seq - self._applied_seq),
                "applied_frames": self._applied_frames,
                "bootstraps": self._bootstraps,
                "max_lag": self.max_lag,
            }
