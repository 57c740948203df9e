"""Read routing and failover over a set of replicas: :class:`ReplicaSet`.

The facade for deployments that replicate: it knows the primary system,
the publisher, and every :class:`~repro.replication.replica.Replica`,
and routes *read-only* work — ORM sessions, portal GET snapshots, search
queries — to the least-lagged healthy replica.  Reads fall back to the
primary whenever no replica is connected within the ``max_lag``
staleness bound, so correctness never depends on replication being up.
Writes always go to the primary; replicas are read-only until promoted.

Failover is explicit (an operator or the torture driver calls it): the
old publisher is stopped, every replica drains what reached it, the
most-caught-up one promotes, a new publisher starts on its database,
and the surviving replicas re-join the new primary.  Because replicas
apply a *prefix* of the primary's commit history, promoting the
maximum-applied replica preserves every commit that any replica ever
confirmed.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import ReplicaLagExceeded, ReplicationError
from repro.replication.primary import ReplicationPublisher
from repro.replication.replica import Replica
from repro.storage.table import track_reads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.orm.session import Session
    from repro.storage.snapshot import Snapshot


class ReplicaSet:
    """Routes reads across one primary and its replicas."""

    def __init__(
        self,
        primary: Any,
        replicas: "Iterable[Replica]" = (),
        *,
        publisher: ReplicationPublisher | None = None,
        max_lag: int = 64,
        obs: "Observability | None" = None,
    ):
        """*primary* is the writable system (a facade with ``.db`` /
        ``.registry`` / ``.search``, or a bare database).  *max_lag*
        is the routing bound in commit sequences — a replica further
        behind is skipped even if its own ``max_lag`` would allow it."""
        self.primary = primary
        self.publisher = publisher
        self.replicas: list[Replica] = list(replicas)
        self.max_lag = max_lag
        self.obs = obs if obs is not None else getattr(primary, "obs", None)
        if self.obs is None:
            self.obs = getattr(primary, "db", primary).obs
        self._m_reads = self.obs.metrics.counter(
            "replication_reads_total",
            "Read operations routed by the replica set",
            labels=("target",),
        )

    # -- membership --------------------------------------------------------

    def add(self, replica: Replica) -> None:
        self.replicas.append(replica)

    @property
    def primary_db(self):
        return getattr(self.primary, "db", self.primary)

    # -- routing -----------------------------------------------------------

    def lag(self, replica: Replica) -> int:
        """Commit sequences *replica* trails the primary by, against the
        primary's own committed seq.  A replica measures its lag only
        from frames it has read, so one stalled mid-apply reads 0."""
        return max(0, self.primary_db.committed_seq - replica.applied_seq)

    def pick(self) -> Replica | None:
        """The least-lagged connected replica within ``max_lag``, or
        ``None`` → use primary."""
        best: Replica | None = None
        best_lag = None
        for replica in self.replicas:
            if replica.promoted or not replica.connected:
                continue
            lag = self.lag(replica)
            if self.max_lag is not None and lag > self.max_lag:
                continue
            if best_lag is None or lag < best_lag:
                best, best_lag = replica, lag
        return best

    def _replica_snapshot(
        self, replica: Replica, min_seq: int | None = None
    ) -> "Snapshot":
        """A snapshot on *replica* once it has applied *min_seq*.

        Raises :class:`ReplicaLagExceeded` when the replica cannot
        serve one, or trails the primary beyond ``max_lag`` once it is
        open (it may have fallen behind since :meth:`pick`)."""
        if min_seq is not None:
            replica.wait_for(min_seq, timeout=2.0)
        snapshot = replica.snapshot()
        lag = self.lag(replica)
        if self.max_lag is not None and lag > self.max_lag:
            snapshot.close()
            raise ReplicaLagExceeded(
                f"replica {replica.name!r} trails the primary by {lag} "
                f"seqs (bound {self.max_lag})",
                lag_seqs=lag,
            )
        return snapshot

    def read_snapshot(self, min_seq: int | None = None) -> "Snapshot":
        """A lock-free read view, replica-first.

        With *min_seq* (a commit-sequence token from a primary write)
        the chosen replica first waits to apply it — read-your-writes
        across the wire; on timeout or lag violation the primary serves
        the read instead.  The caller closes the snapshot.
        """
        replica = self.pick()
        if replica is not None:
            try:
                snapshot = self._replica_snapshot(replica, min_seq)
                self._m_reads.labels(target=replica.name).inc()
                return snapshot
            except ReplicaLagExceeded:
                pass
        self._m_reads.labels(target="primary").inc()
        return self.primary_db.snapshot()

    def read_session(self, min_seq: int | None = None) -> "Session":
        """A read-only ORM session on the routed system.

        Only replicas wrapping a full system (with a registry) are
        eligible; the primary serves otherwise.  The returned session
        has already begun its unit of work — call ``close()`` when done.
        """
        from repro.orm.session import Session

        replica = self.pick()
        if replica is not None and hasattr(replica.system, "registry"):
            try:
                # Guard the lag bound the same way read_snapshot() does.
                self._replica_snapshot(replica, min_seq).close()
                session = Session(replica.system.registry, readonly=True)
                self._m_reads.labels(target=replica.name).inc()
                return session.begin()
            except ReplicaLagExceeded:
                pass
        self._m_reads.labels(target="primary").inc()
        registry = getattr(self.primary, "registry", None)
        if registry is None:
            raise ReplicationError(
                "primary has no ORM registry; use read_snapshot() instead"
            )
        return Session(registry, readonly=True).begin()

    def search(self, principal: Any, query: str, **kwargs: Any) -> Any:
        """Full-text search on the routed system's engine, its reads
        bound to that system's snapshot."""
        replica = self.pick()
        if replica is not None and hasattr(replica.system, "search"):
            try:
                with self._replica_snapshot(replica) as snap, track_reads(
                    snapshot=snap
                ):
                    self._m_reads.labels(target=replica.name).inc()
                    return replica.system.search.search(principal, query, **kwargs)
            except ReplicaLagExceeded:
                pass
        self._m_reads.labels(target="primary").inc()
        search = getattr(self.primary, "search", None)
        if search is None:
            raise ReplicationError("primary has no search engine")
        with self.primary_db.snapshot() as snap, track_reads(snapshot=snap):
            return search.search(principal, query, **kwargs)

    def wait_all(self, seq: int, timeout: float = 5.0) -> None:
        """Block until every replica has applied *seq* (convergence)."""
        for replica in self.replicas:
            if not replica.promoted:
                replica.wait_for(seq, timeout=timeout)

    # -- failover ----------------------------------------------------------

    def promote(self, *, drain_timeout: float = 1.0) -> Replica:
        """Promote the most-caught-up replica; the caller re-wires.

        Stops the publisher (if this set owns one), waits up to
        *drain_timeout* for every replica to apply what reached its
        socket and lose its stream, then drains and promotes the replica
        with the highest applied sequence and removes it from the read
        pool.  Comparing positions before the others have drained could
        pick a replica that one of them then overtakes.  Use
        :meth:`failover` for the full dance including a new publisher
        and replica re-joins.
        """
        if not self.replicas:
            raise ReplicationError("no replica available to promote")
        if self.publisher is not None:
            try:
                self.publisher.stop()
            except Exception:
                pass  # the primary may already be gone
        deadline = time.monotonic() + drain_timeout
        while (
            any(r.connected for r in self.replicas)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        best = max(self.replicas, key=lambda r: r.applied_seq)
        best.promote(drain_timeout=drain_timeout)
        self.replicas.remove(best)
        return best

    def failover(
        self,
        *,
        drain_timeout: float = 1.0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> Replica:
        """Full promote-on-failure: new primary, new publisher, re-joins.

        Returns the promoted replica; afterwards ``self.primary`` is its
        system, ``self.publisher`` streams from its database, and every
        surviving replica follows the new primary.
        """
        promoted = self.promote(drain_timeout=drain_timeout)
        publisher = ReplicationPublisher(
            promoted.db, host=host, port=port, obs=promoted.obs
        ).start()
        assert publisher.port is not None
        for replica in self.replicas:
            replica.rejoin((publisher.host, publisher.port))
        self.primary = promoted.system
        self.publisher = publisher
        self.obs.log.log(
            "replication.failover",
            new_primary=promoted.name,
            seq=promoted.applied_seq,
        )
        return promoted

    # -- lifecycle / introspection ----------------------------------------

    def close(self) -> None:
        for replica in self.replicas:
            replica.stop()
        if self.publisher is not None:
            self.publisher.stop()

    def status(self) -> dict[str, Any]:
        return {
            "max_lag": self.max_lag,
            "publisher": self.publisher.status() if self.publisher else None,
            "replicas": [replica.status() for replica in self.replicas],
        }
