"""WAL-shipping replication: primary/replica log streaming.

The subsystem that turns one embedded B-Fabric database into a
replicated deployment: a :class:`~repro.replication.primary.\
ReplicationPublisher` ships the primary's commit feed — each commit's
write-ahead-log record, as the commit wrote it; it does not tail the
WAL file — to :class:`~repro.replication.replica.Replica` processes
over the CRC-framed TCP protocol in
:mod:`~repro.replication.protocol`; a
:class:`~repro.replication.manager.ReplicaSet` routes read-only work to
the least-lagged replica and orchestrates promote-on-failure.

Quick tour::

    publisher = ReplicationPublisher(primary.db).start()
    replica = Replica(replica_system, ("127.0.0.1", publisher.port),
                      name="r1", max_lag=64).start()
    rs = ReplicaSet(primary, [replica], publisher=publisher)

    seq = primary.db.committed_seq                   # after a write
    replica.wait_for(seq)                            # read-your-writes
    with rs.read_snapshot() as snap:                 # routed read
        snap.query("project").count()

    rs.failover()                                    # primary died
"""

from repro.replication.manager import ReplicaSet
from repro.replication.primary import ReplicationPublisher
from repro.replication.replica import Replica

__all__ = ["ReplicaSet", "ReplicationPublisher", "Replica"]
