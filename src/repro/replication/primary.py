"""Primary side of WAL shipping: the :class:`ReplicationPublisher`.

The publisher is a commit-feed consumer (:meth:`Database.on_commit`).
The feed fires after each commit's durability ticket, in seq order, and
carries the record the commit's WAL line encodes, the line's length and
the commit's trace context; the publisher appends each as a buffered
stream entry ``(seq, prev, record, nbytes, trace)``.  It never reads
the WAL file.

Beside the feed listener the publisher owns one listening TCP socket
and two kinds of thread:

* an *accept* thread that takes replica connections and hands each one
  to a serve thread;
* per-connection *serve* / *ack* threads — the serve thread replays the
  buffer (or a bootstrap snapshot when the replica's position is not in
  the retained chain) and then follows new entries, interleaving
  heartbeats; the ack thread reads the replica's applied sequence and
  keeps the per-replica lag gauges honest.

The entry buffer is bounded (``retain`` entries).  A replica that falls
behind the buffer is disconnected; on reconnect its ``hello.last_seq``
no longer matches a chain point and it gets a full snapshot instead —
bounded memory on the primary, bounded staleness on the replica.  When
the database's state is replaced wholesale (a ``None`` feed delivery:
recovery, or a bootstrap of this database from an upstream), the buffer
empties and every connected replica is evicted to re-bootstrap.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.errors import ReplicationError
from repro.replication import protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.storage.database import Database
    from repro.storage.transaction import CommitEvent


class _Entry:
    """One shipped commit in the publisher's retained buffer."""

    __slots__ = ("seq", "prev", "record", "nbytes", "trace")

    def __init__(
        self,
        seq: int,
        prev: int,
        record: dict[str, Any],
        nbytes: int,
        trace: dict[str, str] | None = None,
    ):
        self.seq = seq
        self.prev = prev
        self.record = record
        self.nbytes = nbytes
        # Serialized TraceContext of the originating commit (None for
        # untraced commits); stamped into the commit frame on send.
        self.trace = trace


class _Handle:
    """Publisher-side state for one connected replica."""

    __slots__ = ("name", "conn", "acked_seq", "cursor", "epoch", "alive")

    def __init__(
        self, name: str, conn: protocol.Connection, cursor: int, epoch: int
    ):
        self.name = name
        self.conn = conn
        self.acked_seq = cursor
        self.cursor = cursor
        # The publisher's epoch when the cursor was chosen; a state
        # replacement since then makes the cursor meaningless.
        self.epoch = epoch
        self.alive = True


class ReplicationPublisher:
    """Streams the commit feed's records to connected replicas."""

    def __init__(
        self,
        db: "Database",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        obs: "Observability | None" = None,
        retain: int = 512,
        heartbeat_interval: float = 0.2,
    ):
        if db.wal is None:
            raise ReplicationError(
                "replication requires a durable database (no WAL to ship)"
            )
        self.db = db
        self.obs = obs if obs is not None else db.obs
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.heartbeat_interval = heartbeat_interval
        self._mu = threading.Lock()
        self._cv = threading.Condition(self._mu)
        self._entries: deque[_Entry] = deque(maxlen=retain)
        self._last_seq = 0
        # Bumped by every state replacement; handles from an older
        # epoch are evicted.
        self._epoch = 0
        self._handles: dict[str, _Handle] = {}
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        # Long-lived threads (the acceptor).  Per-connection serve/ack
        # threads register in _conn_threads and remove themselves when
        # they exit, so a primary with reconnecting replicas never
        # accumulates dead Thread objects.
        self._threads: list[threading.Thread] = []
        self._conn_threads: set[threading.Thread] = set()
        self._started = False
        metrics = self.obs.metrics
        self._g_lag_seqs = metrics.gauge(
            "replication_lag_seqs",
            "Commit sequences shipped but not yet acked, per replica",
            labels=("replica",),
        )
        self._g_lag_bytes = metrics.gauge(
            "replication_lag_bytes",
            "WAL bytes shipped but not yet acked, per replica",
            labels=("replica",),
        )
        self._g_connected = metrics.gauge(
            "replication_connected_replicas", "Replicas currently streaming"
        ).labels()
        self._m_frames = metrics.counter(
            "replication_frames_total",
            "Frames sent by the publisher",
            labels=("type",),
        )
        self._m_bootstraps = metrics.counter(
            "replication_bootstraps_total",
            "Full-snapshot bootstraps served to joining replicas",
        ).labels()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ReplicationPublisher":
        """Subscribe to the feed, bind the listener, start the acceptor."""
        if self._started:
            raise ReplicationError("publisher already started")
        self._started = True
        # Subscribing returns the committed seq under the writer lock:
        # every later commit reaches _on_commit, and any earlier one
        # still in flight arrives at or below it and is skipped.
        self._last_seq = self.db.on_commit(self._on_commit)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(16)
        self._listener = listener
        self.port = listener.getsockname()[1]
        thread = threading.Thread(
            target=self._accept_loop, name="replication-accept", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        self.obs.log.log(
            "replication.serve", host=self.host, port=self.port,
            seq=self._last_seq,
        )
        return self

    def stop(self) -> None:
        """Stop streaming and close every connection (drains nothing)."""
        self._stop.set()
        if self._listener is not None:
            try:
                # close() alone does not wake a thread blocked in
                # accept() on Linux; shutdown() does, at once.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # refused on a listener by some platforms
            try:
                self._listener.close()
            except OSError:
                pass
        with self._mu:
            handles = list(self._handles.values())
            conn_threads = list(self._conn_threads)
            self._cv.notify_all()
        for handle in handles:
            handle.conn.close()
        for thread in self._threads + conn_threads:
            thread.join(timeout=2.0)

    # The torture driver's "kill": identical to stop today, named so the
    # intent (abrupt primary death, nothing is flushed or drained for
    # the replicas' benefit) stays explicit at call sites.
    kill = stop

    # -- the commit feed ----------------------------------------------------

    def _on_commit(self, event: "CommitEvent") -> None:
        """Buffer one commit for the replicas (runs in the committer)."""
        with self._mu:
            if event.ops is None:
                # State replaced: no retained entry, and no replica's
                # position, describes the new state.  Re-base and evict.
                self._entries.clear()
                self._last_seq = event.seq
                self._epoch += 1
            elif event.seq > self._last_seq:
                trace = event.trace
                self._entries.append(
                    _Entry(
                        event.seq, self._last_seq, event.record, event.nbytes,
                        trace=trace.to_dict() if trace is not None else None,
                    )
                )
                self._last_seq = event.seq
            else:
                return  # committed before start() subscribed
            self._refresh_lag_locked()
            self._cv.notify_all()

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            thread = threading.Thread(
                target=self._serve,
                args=(sock, addr),
                name=f"replication-serve-{addr[1]}",
                daemon=True,
            )
            thread.start()

    def _serve(self, sock: socket.socket, addr: tuple[str, int]) -> None:
        sock.settimeout(10.0)
        conn = protocol.Connection(sock)
        handle: _Handle | None = None
        ack_thread: threading.Thread | None = None
        with self._mu:
            self._conn_threads.add(threading.current_thread())
        try:
            hello = conn.recv()
            if hello is None or hello.get("type") != "hello":
                return
            name = str(hello.get("replica") or f"{addr[0]}:{addr[1]}")
            last_seq = int(hello.get("last_seq", 0))
            history = str(hello.get("history") or "")
            cursor, epoch = self._handshake(conn, name, last_seq, history)
            handle = _Handle(name, conn, cursor, epoch)
            with self._mu:
                self._handles[name] = handle
                self._g_connected.set(len(self._handles))
            ack_thread = threading.Thread(
                target=self._ack_loop,
                args=(handle,),
                name=f"replication-ack-{name}",
                daemon=True,
            )
            with self._mu:
                # Started under the lock: stop() joins what it finds in
                # the set, and joining an unstarted thread raises.
                self._conn_threads.add(ack_thread)
                ack_thread.start()
            self._stream(handle)
        except Exception as exc:
            self.obs.log.log("replication.serve_error", error=str(exc))
        finally:
            if handle is not None:
                handle.alive = False
                with self._mu:
                    if self._handles.get(handle.name) is handle:
                        del self._handles[handle.name]
                    self._g_connected.set(len(self._handles))
            conn.close()
            with self._mu:
                self._conn_threads.discard(threading.current_thread())

    def _handshake(
        self, conn: protocol.Connection, name: str, last_seq: int, history: str
    ) -> tuple[int, int]:
        """Resume from the chain when possible, else serve a bootstrap.

        Returns the cursor the stream starts from and the epoch it
        belongs to.  ``last_seq`` is a
        valid resume point only when it is a *chain point* — the ``prev``
        of a retained entry or the newest shipped sequence — because the
        sequence space has gaps and an arbitrary number in range could
        be a diverged replica's private history.  The replica's
        ``history`` must also match ours: sequence numbers only mean
        anything within one history, so a replica that last synced from
        a different lineage (a pre-promotion primary, or any unrelated
        database whose counter happens to cross its position) is always
        bootstrapped, never resumed.
        """
        our_history = self.db.history_id
        with self._mu:
            epoch = self._epoch
            chain_points = {entry.prev for entry in self._entries}
            chain_points.add(self._last_seq)
            resumable = last_seq in chain_points and history == our_history
        if resumable:
            conn.send(protocol.resume(last_seq, history=our_history))
            self._m_frames.labels(type="resume").inc()
            self.obs.log.log("replication.resume", replica=name, seq=last_seq)
            return last_seq, epoch
        seq, tables = self.db.export_snapshot()
        conn.send(protocol.snapshot_message(
            seq, tables, history=our_history,
            versions=self.db.version_vector_at(seq),
        ))
        self._m_frames.labels(type="snapshot").inc()
        self._m_bootstraps.inc()
        self.obs.log.log("replication.bootstrap", replica=name, seq=seq)
        return seq, epoch

    def _stream(self, handle: _Handle) -> None:
        """Replay the buffer past the cursor, then follow new entries."""
        while not self._stop.is_set() and handle.alive:
            with self._mu:
                if handle.epoch != self._epoch or (
                    self._entries and handle.cursor < self._entries[0].prev
                ):
                    # The state was replaced, or the replica fell behind
                    # the retained buffer: force a rejoin (the replica's
                    # next hello will get a bootstrap).
                    self.obs.log.log(
                        "replication.evict", replica=handle.name,
                        cursor=handle.cursor,
                    )
                    return
                batch = [e for e in self._entries if e.seq > handle.cursor]
                if not batch:
                    self._cv.wait(timeout=self.heartbeat_interval)
                    if handle.epoch != self._epoch:
                        continue  # evicted at the top of the loop
                    batch = [e for e in self._entries if e.seq > handle.cursor]
                heartbeat_seq = self._last_seq
            if not batch:
                handle.conn.send(protocol.heartbeat(heartbeat_seq))
                self._m_frames.labels(type="heartbeat").inc()
                continue
            for entry in batch:
                handle.conn.send(
                    protocol.commit_message(
                        entry.seq, entry.prev, entry.record,
                        trace=entry.trace,
                    )
                )
                handle.cursor = entry.seq
                self._m_frames.labels(type="commit").inc()

    def _ack_loop(self, handle: _Handle) -> None:
        try:
            while not self._stop.is_set() and handle.alive:
                try:
                    message = handle.conn.recv()
                except socket.timeout:
                    continue
                if message is None:
                    return
                if message.get("type") != "ack":
                    continue
                seq = int(message.get("seq", 0))
                with self._mu:
                    if seq > handle.acked_seq:
                        handle.acked_seq = seq
                    self._refresh_lag_locked(handle)
        except Exception as exc:
            self.obs.log.log(
                "replication.ack_error", replica=handle.name, error=str(exc)
            )
        finally:
            # However this loop ends, the connection is unusable for lag
            # accounting: tear it down so the serve thread unblocks, the
            # replica reconnects, and the gauges never freeze on a stale
            # acked_seq while commits keep streaming.
            handle.alive = False
            handle.conn.close()
            with self._mu:
                self._conn_threads.discard(threading.current_thread())

    def _refresh_lag_locked(self, only: "_Handle | None" = None) -> None:
        handles = [only] if only is not None else list(self._handles.values())
        for handle in handles:
            lag_seqs = max(0, self._last_seq - handle.acked_seq)
            lag_bytes = sum(
                e.nbytes for e in self._entries if e.seq > handle.acked_seq
            )
            self._g_lag_seqs.labels(replica=handle.name).set(lag_seqs)
            self._g_lag_bytes.labels(replica=handle.name).set(lag_bytes)

    # -- introspection -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Connected replicas and their lag, for CLI/portal display."""
        with self._mu:
            return {
                "address": f"{self.host}:{self.port}",
                "last_seq": self._last_seq,
                "buffered_entries": len(self._entries),
                "replicas": {
                    h.name: {
                        "acked_seq": h.acked_seq,
                        "lag_seqs": max(0, self._last_seq - h.acked_seq),
                        "lag_bytes": sum(
                            e.nbytes
                            for e in self._entries
                            if e.seq > h.acked_seq
                        ),
                    }
                    for h in self._handles.values()
                },
            }

    def connected_replicas(self) -> list[str]:
        with self._mu:
            return sorted(self._handles)
