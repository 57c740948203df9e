"""Partitioned single-writer databases behind one coordinator facade.

The single-writer commit protocol is a hard throughput ceiling: one
writer lock, one fsync stream.  :class:`ShardedDatabase` splits the row
space across N fully independent :class:`~repro.storage.database.Database`
shards — each with its own WAL, group-commit batching, MVCC version
chains, and data directory — and presents the same ``Database``-shaped
API, so the facade, ORM, search, and portal run unchanged on top.  A
coordinator always has N >= 2 shards: a one-shard deployment *is* a
plain ``Database``, and the data directory (its shard map, or a WAL or
snapshot without one) decides which of the two opens it.

Routing (:class:`ShardRouter`) follows the paper's data shape: B-Fabric
rows are naturally project-scoped, so project-bearing tables hash the
project id (children land on their project's shard, keeping foreign keys
local), reference tables (users, instruments, applications) replicate to
*every* shard so per-shard FK checks compose into a complete check, and
everything else hashes its primary key.

Transactions that touch one shard take exactly that shard's commit path —
zero added fsyncs.  Cross-shard transactions run two-phase commit over
the existing WALs:

1. *prepare*: each participant force-appends a ``prepare`` record
   carrying the global transaction id (gtid) and its full redo log;
2. *decide*: the coordinator fsyncs a ``decision`` record to its own
   log — this append is the commit point;
3. *commit*: each participant appends a normal commit record stamped
   with the gtid (replication ships it unchanged) and publishes.

Recovery resolves in-doubt prepares by consulting the coordinator's
decision log; a prepare with no decision is presumed aborted.  Either
outcome is re-appended to the shard WAL, so the next recovery reaches
the same answer without the decision log.

Reads scatter-gather: :meth:`ShardedDatabase.snapshot` pins one MVCC
snapshot *per shard* under the coordinator's publish lock — the vector
is atomic with respect to cross-shard commits, so a 2PC transaction is
either visible on all its shards or none.  :class:`ShardedQuery` is a
:class:`~repro.storage.query.Query` whose rows come from the routed
shards; its :meth:`~ShardedQuery.explain` reports the shards consulted
and the routing mode (direct / scatter / global).
"""

from __future__ import annotations

import json
import threading
import uuid
import zlib
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import (
    CrashPoint,
    RowNotFound,
    SchemaError,
    TransactionError,
)
from repro.obs import Observability
from repro.resilience.faults import fault_point
from repro.storage.database import SNAPSHOT_NAME, WAL_NAME, Database
from repro.storage.durability import Durability
from repro.storage.query import DEFAULT_QUERY_CACHE_SIZE, Query
from repro.storage.schema import TableSchema
from repro.storage.snapshot import Snapshot
from repro.storage.types import sort_key
from repro.storage.wal import WriteAheadLog
from repro.util.ids import IdAllocator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.transaction import Transaction

SHARD_MAP_NAME = "shard_map.json"
DECISION_LOG_NAME = "coordinator.log"

#: Bound on waiting for a shard writer lock inside a cross-shard
#: transaction.  Two transactions acquiring shard locks in opposite
#: orders resolve as a TransactionError + full rollback instead of a
#: deadlock.
DEFAULT_LOCK_TIMEOUT = 5.0

#: Reference tables replicated to every shard by default so foreign-key
#: checks against them hold locally on any shard.
DEFAULT_GLOBAL_TABLES = frozenset()


def stable_hash(value: Any) -> int:
    """Deterministic, process-independent hash of a routing value.

    ``hash()`` is salted per process for strings; routing must give the
    same shard across restarts, so this hashes a type-tagged repr with
    CRC32 instead.
    """
    if isinstance(value, bool):  # bool is an int subtype; tag it apart
        tag = f"bool:{value}"
    else:
        tag = f"{type(value).__name__}:{value}"
    return zlib.crc32(tag.encode("utf-8", "replace")) & 0xFFFFFFFF


def stored_shard_count(path: "str | Path") -> int | None:
    """How many shards the deployment at *path* holds, or ``None`` if
    nothing is there yet.

    A shard map records its N (always >= 2); a WAL or snapshot without
    one is a plain one-shard :class:`Database`.
    """
    path = Path(path)
    map_path = path / SHARD_MAP_NAME
    if map_path.exists():
        try:
            shards = int(json.loads(map_path.read_text(encoding="utf-8"))["shards"])
        except (ValueError, KeyError, TypeError):
            raise SchemaError(f"unreadable shard map {map_path}") from None
        if shards < 2:
            raise SchemaError(
                f"shard map {map_path} records {shards} shard(s); a one-shard "
                f"deployment is a plain Database (its rows are in shard-0/)"
            )
        return shards
    if (path / WAL_NAME).exists() or (path / SNAPSHOT_NAME).exists():
        return 1
    return None


def resolve_shard_count(path: "str | Path | None", shards: int | None) -> int:
    """The shard count to open *path* with: the directory's own.

    An explicit *shards* that disagrees with the directory is refused
    before anything is written; ``None`` (or an empty directory) takes
    whatever is there, defaulting to one shard.
    """
    stored = None if path is None else stored_shard_count(path)
    if shards is None:
        return stored or 1
    if stored is not None and stored != shards:
        raise SchemaError(
            f"data directory {path} holds {stored} shard(s); refusing to "
            f"open it with {shards} (resharding is not supported)"
        )
    return shards


class ShardRouter:
    """Maps tables and rows to shards.

    Placements, decided once per table at ``create_table`` time:

    * ``("global",)`` — reference data written to *every* shard and read
      from shard 0.  Keeps FK targets available locally everywhere.
    * ``("project", column)`` — routed by ``stable_hash(row[column])``.
      The project table itself routes by its primary key, so a project
      and its project-scoped children co-locate.
    * ``("parent", column, parent_table)`` — routed to wherever the FK
      parent row lives (probed at write time), co-locating child rows
      with routed parents that carry no project column themselves.
    * ``("hash", pk_column)`` — hash of the primary key; the fallback.
    """

    def __init__(
        self,
        *,
        global_tables: "frozenset[str] | set[str]" = DEFAULT_GLOBAL_TABLES,
        project_table: str = "project",
        project_column: str = "project_id",
        overrides: "dict[str, tuple] | None" = None,
    ):
        self.global_tables = frozenset(global_tables)
        self.project_table = project_table
        self.project_column = project_column
        self.overrides = dict(overrides or {})

    def classify(
        self, schema: TableSchema, placements: dict[str, tuple]
    ) -> tuple:
        """Choose a placement for *schema* given the tables routed so far."""
        name = schema.name
        if name in self.overrides:
            return self.overrides[name]
        if name in self.global_tables:
            return ("global",)
        pk = schema.primary_key.name
        if name == self.project_table:
            return ("project", pk)
        if schema.has_column(self.project_column):
            return ("project", self.project_column)
        # A table hanging off a routed parent co-locates with it: route
        # by the FK column, resolved to the parent's shard at write time.
        for col, fk in schema.foreign_keys():
            parent = placements.get(fk.table)
            if parent is not None and parent[0] in ("project", "parent", "hash"):
                return ("parent", col.name, fk.table)
        return ("hash", pk)

    def config(self) -> dict[str, Any]:
        """JSON-safe description persisted in the shard map."""
        return {
            "global_tables": sorted(self.global_tables),
            "project_table": self.project_table,
            "project_column": self.project_column,
        }


_ACTIVE = "active"
_COMMITTED = "committed"
_ROLLED_BACK = "rolled back"


class ShardedTransaction:
    """A transaction spanning one or more shards.

    Per-shard :class:`~repro.storage.transaction.Transaction` objects
    are opened lazily on first touch, so a transaction that only ever
    writes one shard acquires one writer lock and commits through that
    shard's unmodified path.  At commit time, multi-shard transactions
    run two-phase commit (see the module docstring)."""

    def __init__(self, sdb: "ShardedDatabase", txn_id: int, timeout: float):
        self._sdb = sdb
        self.txn_id = txn_id
        self._timeout = timeout
        self._txns: "dict[int, Transaction]" = {}
        self._state = _ACTIVE
        # savepoint name -> (creation index, shards open at creation)
        self._savepoints: dict[str, tuple[int, frozenset[int]]] = {}
        self._savepoint_counter = 0
        self.timer = sdb.obs.timer()

    # -- state -------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._state == _ACTIVE

    def _require_active(self) -> None:
        if self._state != _ACTIVE:
            raise TransactionError(f"transaction is {self._state}")

    # -- shard access ------------------------------------------------------

    def _txn_for(self, sid: int) -> "Transaction":
        txn = self._txns.get(sid)
        if txn is not None:
            return txn
        try:
            txn = self._sdb.shard(sid).transaction(timeout=self._timeout)
        except TransactionError:
            # Possible ABBA lock conflict with another cross-shard
            # transaction: release everything so the other side can make
            # progress, then surface the conflict to the caller.
            self.rollback()
            raise TransactionError(
                f"shard {sid} writer lock not acquired within "
                f"{self._timeout:.3f}s; transaction rolled back "
                "(cross-shard lock conflict)"
            ) from None
        self._txns[sid] = txn
        return txn

    # -- writes ------------------------------------------------------------

    def insert(self, table: str, values: dict[str, Any]) -> dict[str, Any]:
        self._require_active()
        sdb = self._sdb
        values = dict(values)
        sdb._assign_pk(table, values)
        placement = sdb.placement(table)
        if placement[0] == "global":
            # Same row, same pk, on every shard — ascending shard order
            # keeps lock acquisition deadlock-free among global writers.
            row: dict[str, Any] = {}
            for sid in range(len(sdb.shards)):
                row = self._txn_for(sid).insert(table, values)
            return row
        sid = sdb._route_insert(table, placement, values)
        return self._txn_for(sid).insert(table, values)

    def update(
        self, table: str, pk: Any, changes: dict[str, Any]
    ) -> dict[str, Any]:
        self._require_active()
        sdb = self._sdb
        placement = sdb.placement(table)
        if placement[0] == "global":
            row: dict[str, Any] = {}
            for sid in range(len(sdb.shards)):
                row = self._txn_for(sid).update(table, pk, changes)
            return row
        sid = sdb._owner(table, pk)
        if placement[0] in ("project", "hash") and placement[1] in changes:
            new_sid = sdb.shard_index(changes[placement[1]])
            if new_sid != sid:
                raise TransactionError(
                    f"update of routing column {placement[1]!r} on "
                    f"{table!r} would move the row from shard {sid} to "
                    f"shard {new_sid}; cross-shard row migration is not "
                    "supported (delete + reinsert instead)"
                )
        return self._txn_for(sid).update(table, pk, changes)

    def delete(self, table: str, pk: Any) -> dict[str, Any]:
        self._require_active()
        sdb = self._sdb
        if sdb.placement(table)[0] == "global":
            row: dict[str, Any] = {}
            for sid in range(len(sdb.shards)):
                row = self._txn_for(sid).delete(table, pk)
            return row
        return self._txn_for(sdb._owner(table, pk)).delete(table, pk)

    def get(self, table: str, pk: Any) -> dict[str, Any]:
        self._require_active()
        return self._txn_for(self._sdb._owner(table, pk)).get(table, pk)

    # -- savepoints --------------------------------------------------------

    def savepoint(self, name: str) -> None:
        self._require_active()
        self._savepoint_counter += 1
        for txn in self._txns.values():
            txn.savepoint(name)
        self._savepoints[name] = (
            self._savepoint_counter,
            frozenset(self._txns),
        )

    def rollback_to(self, name: str) -> None:
        self._require_active()
        if name not in self._savepoints:
            raise TransactionError(f"no savepoint named {name!r}")
        index, open_then = self._savepoints[name]
        # Shards first touched after the savepoint roll back entirely.
        for sid in list(self._txns):
            if sid in open_then:
                self._txns[sid].rollback_to(name)
            else:
                self._txns[sid].rollback()
                del self._txns[sid]
        self._savepoints = {
            n: entry
            for n, entry in self._savepoints.items()
            if entry[0] <= index
        }

    # -- completion --------------------------------------------------------

    def commit(self) -> None:
        self._require_active()
        participants = [
            (sid, self._txns[sid])
            for sid in sorted(self._txns)
            if self._txns[sid].operations
        ]
        idle = [
            self._txns[sid]
            for sid in sorted(self._txns)
            if not self._txns[sid].operations
        ]
        self._state = _COMMITTED
        for txn in idle:
            txn.commit()  # no-op commit: releases the shard lock
        if not participants:
            return
        if len(participants) == 1:
            # Single-shard: the shard's own commit path, unchanged — one
            # WAL append, zero coordination fsyncs.
            participants[0][1].commit()
            self._sdb._count_routing("direct")
            return
        self._commit_two_phase(participants)

    def _commit_two_phase(
        self, participants: list[tuple[int, "Transaction"]]
    ) -> None:
        sdb = self._sdb
        gtid = uuid.uuid4().hex
        prepared: list[tuple[int, "Transaction"]] = []
        try:
            # Prepares fan out across the shard I/O pool — each is an
            # independent fsync on a different shard's WAL, so the lock
            # hold on all participants shrinks to the *slowest* prepare
            # instead of their sum.  The crash sites fire on this thread,
            # in shard order, before each dispatch, so fault injection
            # stays deterministic; the joins below make every dispatched
            # append settle before a simulated crash propagates.
            pending: list[tuple[int, "Transaction", Callable]] = []
            errors: list[BaseException] = []
            try:
                for sid, txn in participants:
                    # Crash site: dies with some (not all) shards
                    # prepared — recovery must presume abort.
                    fault_point("2pc.prepare")
                    pending.append(
                        (
                            sid,
                            txn,
                            sdb._pool.submit(
                                sdb.shard(sid).prepare_commit, txn, gtid
                            ).result,
                        )
                    )
            finally:
                for sid, txn, join in pending:
                    try:
                        join()
                        prepared.append((sid, txn))
                    except BaseException as exc:
                        errors.append(exc)
            if errors:
                raise errors[0]
            # Crash site: every vote is in, the decision is not — still
            # presumed abort.
            fault_point("2pc.decide")
            sdb._record_decision(gtid, "commit", [sid for sid, _ in participants])
        except CrashPoint:
            # Simulated crash: leave the on-disk state exactly as the
            # crash found it (writing abort records would repair the very
            # situation torture is trying to create).
            self._sdb._m_2pc_children["crash"].inc()
            raise
        except BaseException:
            # Real failure before the decision became durable: presumed
            # abort.  Prepared shards get an abort record; the rest just
            # roll back.
            prepared_set = {id(txn) for _, txn in prepared}
            for sid, txn in participants:
                if id(txn) in prepared_set:
                    sdb.shard(sid).abort_prepared(txn, gtid)
                else:
                    txn.rollback()
            self._state = _ROLLED_BACK
            sdb._m_2pc_children["abort"].inc()
            raise
        # The decision is durable: this transaction is committed, come
        # what may.  Phase 2 is split so the publish lock never covers
        # an fsync: first every participant's commit record is forced
        # down (fanned out, outside any global lock), then all
        # participants publish together under the publish lock — a
        # memory-only window, so a snapshot vector opened concurrently
        # still sees either every participant's commit or none of them.
        logging: list[tuple[int, "Transaction", Callable]] = []
        try:
            for sid, txn in participants:
                # Crash site: dies with the decision durable but only a
                # prefix of the commit records forced — recovery must
                # roll the rest *forward* from their prepares.
                fault_point("2pc.commit")
                logging.append(
                    (
                        sid,
                        txn,
                        sdb._pool.submit(
                            sdb.shard(sid).commit_prepared_durable, txn, gtid
                        ).result,
                    )
                )
        except CrashPoint:
            for _sid, _txn, join in logging:
                try:
                    join()
                except BaseException:
                    pass
            sdb._m_2pc_children["crash"].inc()
            raise
        logged = [(sid, txn, join()) for sid, txn, join in logging]
        with sdb._publish_lock:
            for sid, txn, seq in logged:
                sdb.shard(sid).commit_prepared_publish(txn, seq)
        for sid, txn, seq in logged:
            sdb.shard(sid).commit_prepared_finish(txn, seq)
        sdb._m_2pc_children["commit"].inc()
        sdb._count_routing("2pc")

    def rollback(self) -> None:
        if self._state != _ACTIVE:
            return
        self._state = _ROLLED_BACK
        for sid in sorted(self._txns):
            self._txns[sid].rollback()

    def __enter__(self) -> "ShardedTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if self._state == _ACTIVE:
                self.commit()
        elif self._state == _ACTIVE:
            self.rollback()


class ShardedSnapshot:
    """A consistent read view pinned across every shard.

    Holds one per-shard :class:`~repro.storage.snapshot.Snapshot`,
    opened atomically with respect to cross-shard commits (the
    coordinator's publish lock covers both), so a 2PC transaction is
    visible on all of its shards or on none.  Offers the part of the
    single-shard snapshot surface the stack reads through: point reads,
    counts and queries."""

    __slots__ = ("_sdb", "_sid", "_parts", "_closed")

    def __init__(
        self, sdb: "ShardedDatabase", sid: int, parts: list[Snapshot]
    ):
        self._sdb = sdb
        self._sid = sid
        self._parts = parts
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def seq(self) -> int:
        """Highest per-shard pinned sequence (shards number independently)."""
        return max(part.seq for part in self._parts)

    @property
    def vector(self) -> list[int]:
        """The pinned commit sequence of every shard, in shard order."""
        return [part.seq for part in self._parts]

    @property
    def closed(self) -> bool:
        return self._closed

    def part(self, sid: int) -> Snapshot:
        """The underlying single-shard snapshot for shard *sid*."""
        return self._parts[sid]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            for part in self._parts:
                part.close()
            self._sdb._release_vector(self._sid)

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<ShardedSnapshot vector={self.vector} {state}>"

    def _check_open(self) -> None:
        if self._closed:
            raise SchemaError("snapshot is closed")

    def _read_parts(self, table: str) -> list[Snapshot]:
        self._check_open()
        if self._sdb.placement(table)[0] == "global":
            return [self._parts[0]]
        return self._parts

    # -- reads -------------------------------------------------------------

    def get(self, table: str, pk: Any) -> dict[str, Any]:
        row = self.get_or_none(table, pk)
        if row is None:
            raise RowNotFound(table, pk)
        return row

    def get_or_none(self, table: str, pk: Any) -> dict[str, Any] | None:
        for part in self._read_parts(table):
            row = part.get_or_none(table, pk)
            if row is not None:
                return row
        return None

    def count(self, table: str) -> int:
        return sum(part.count(table) for part in self._read_parts(table))

    def query(self, table: str) -> "ShardedQuery":
        self._check_open()
        return ShardedQuery(self._sdb, table, snapshot=self)


class ShardedQuery(Query):
    """A :class:`~repro.storage.query.Query` whose rows come from shards.

    Everything else is inherited: the builder, column checks against
    shard 0's schema (every shard holds the same one), ``fingerprint``,
    and every terminal that ``Query`` computes over
    :meth:`_matching_rows`/:meth:`_limited_rows` (``exists``, ``first``,
    ``one``, ``pks``, ``values``, ``distinct_values``, ``aggregate``,
    ``group_by``).  A single-shard route (a global table, or equality on
    the routing column or hash key) pushes the whole query — order,
    offset, limit — down to that shard; a scatter route pushes
    ``limit(offset+limit)`` down and sorts and pages the merged rows.
    ``all``/``count`` go through each shard's own result cache."""

    def __init__(
        self,
        sdb: "ShardedDatabase",
        table: str,
        *,
        snapshot: "ShardedSnapshot | None" = None,
    ):
        super().__init__(sdb.shard(0).table(table), snapshot=snapshot)
        self._sdb = sdb

    def _route(self) -> tuple[list[int], str]:
        """``(shards_consulted, routing)`` for this query's predicates."""
        placement = self._sdb.placement(self._table.name)
        if placement[0] == "global":
            return [0], "global"
        if placement[0] in ("project", "hash"):
            for cond in self._conditions:
                if (
                    cond.column == placement[1]
                    and cond.op == "="
                    and cond.value is not None
                ):
                    return [self._sdb.shard_index(cond.value)], "direct"
        return list(range(len(self._sdb.shards))), "scatter"

    def _part(self, sid: int, *, push_paging: bool = False) -> Query:
        """This query on shard *sid*.  Paging goes down whole when the
        shard is the only one consulted; otherwise a shard can never
        contribute more than ``offset + limit`` rows to the page."""
        snap = None if self._snapshot is None else self._snapshot.part(sid)
        part = Query(self._sdb.shard(sid).table(self._table.name), snapshot=snap)
        part._conditions = self._conditions
        part._order = self._order
        part._use_indexes = self._use_indexes
        if push_paging:
            part._offset, part._limit = self._offset, self._limit
        elif self._limit is not None:
            part._limit = self._offset + self._limit
        return part

    def _matching_rows(self) -> Iterator[dict[str, Any]]:
        return chain.from_iterable(
            self._part(sid)._matching_rows() for sid in self._route()[0]
        )

    def _limited_rows(self) -> list[dict[str, Any]]:
        targets, routing = self._route()
        if routing != "scatter":
            return self._part(targets[0], push_paging=True).all()
        rows = [row for sid in targets for row in self._part(sid).all()]
        for column, descending in reversed(self._order):
            rows.sort(key=lambda r: sort_key(r.get(column)), reverse=descending)
        stop = None if self._limit is None else self._offset + self._limit
        return rows[self._offset:stop]

    def all(self) -> list[dict[str, Any]]:
        # The per-shard results are already private copies.
        return list(self._result_rows())

    def count(self) -> int:
        return sum(self._part(sid).count() for sid in self._route()[0])

    def explain(self, *, analyze: bool = False) -> dict[str, Any]:
        """The consulted shards' explains, merged.

        ``shards_consulted`` lists the shards this query reads and
        ``routing`` is ``direct`` (one shard), ``scatter`` (all), or
        ``global`` (reference table, shard 0).  On a scatter route the
        strategy describes the first consulted shard, ``shards`` maps
        every consulted shard to its strategy, and candidates and
        estimates are summed across them.
        """
        targets, routing = self._route()
        plans = [
            self._part(sid, push_paging=routing != "scatter").explain()
            for sid in targets
        ]
        result = plans[0]
        result["shards_consulted"] = targets
        result["routing"] = routing
        if routing == "scatter":
            result["shards"] = {
                sid: plan["strategy"] for sid, plan in zip(targets, plans)
            }
            for key in ("candidates", "estimated_rows"):
                result[key] = sum(plan[key] for plan in plans)
            result["estimated_cost"] = round(
                sum(plan["estimated_cost"] for plan in plans), 2
            )
        if analyze:
            result["actual_rows"] = len(self.all())
        return result


class ShardedDatabase:
    """N single-writer databases behind one ``Database``-shaped facade.

    See the module docstring for the protocol.  The coordinator keeps no
    row data of its own: all state lives in the shards (each a complete
    :class:`~repro.storage.database.Database` with its own directory)
    plus one small decision log for cross-shard commits.
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        *,
        shards: int,
        durable: bool = True,
        durability: "Durability | str | None" = None,
        query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
        obs: "Observability | None" = None,
        router: "ShardRouter | None" = None,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ):
        if shards < 2:
            raise SchemaError(
                f"a sharded deployment needs >= 2 shards, got {shards}; "
                "one shard is a plain Database"
            )
        if path is not None:
            resolve_shard_count(path, shards)
        self.obs = obs if obs is not None else Observability()
        self.router = router if router is not None else ShardRouter()
        self.durability = Durability.parse(durability)
        self.lock_timeout = lock_timeout
        self._path = Path(path) if path is not None else None
        self._placements: dict[str, tuple] = {}
        self._allocators: dict[str, IdAllocator] = {}
        self._txn_counter = 0
        self._txn_lock = threading.Lock()
        # Serializes cross-shard publishes against snapshot-vector opens
        # (atomic 2PC visibility).  Deliberately *not* taken by shard
        # checkpoints — see DESIGN §14 on lock ordering.
        self._publish_lock = threading.Lock()
        # Decision-log group commit: appenders queue under the mutex,
        # whoever holds the baton drains the queue with one write+fsync.
        self._decision_lock = threading.Lock()  # the writer baton
        self._decision_mutex = threading.Lock()  # guards the queue only
        self._decision_queue: list = []
        self._vector_lock = threading.Lock()
        self._vector_counter = 0
        self._open_vectors = 0
        self._m_2pc = self.obs.metrics.counter(
            "storage_2pc_total",
            "Cross-shard two-phase commits by outcome",
            labels=("outcome",),
        )
        self._m_routing = self.obs.metrics.counter(
            "storage_txn_routing_total",
            "Committed coordinator transactions by routing",
            labels=("routing",),
        )
        # Label-child lookups cost a dict hash + lock per call; the
        # commit hot path bumps these counters once per transaction, so
        # resolve the children once here.
        self._m_routing_children = {
            routing: self._m_routing.labels(routing=routing)
            for routing in ("direct", "scatter", "2pc")
        }
        self._m_2pc_children = {
            outcome: self._m_2pc.labels(outcome=outcome)
            for outcome in ("commit", "abort", "crash")
        }
        if self._path is not None:
            self._path.mkdir(parents=True, exist_ok=True)
            map_path = self._path / SHARD_MAP_NAME
            if not map_path.exists():
                map_path.write_text(
                    json.dumps(
                        {"shards": shards, "router": self.router.config()},
                        indent=2,
                        sort_keys=True,
                    )
                    + "\n",
                    encoding="utf-8",
                )
        self.shards: list[Database] = [
            Database(
                self._path / f"shard-{i}" if self._path is not None else None,
                durable=durable,
                durability=durability,
                query_cache_size=query_cache_size,
                obs=self.obs,
                shard=str(i),
            )
            for i in range(shards)
        ]
        self._decision_log: WriteAheadLog | None = None
        if self._path is not None and durable:
            self._decision_log = WriteAheadLog(
                self._path / DECISION_LOG_NAME,
                durability="always",
            )
        # Fans a cross-shard transaction's per-shard WAL forces out so
        # they run concurrently (fsync releases the GIL); a 2PC round
        # then costs the slowest participant, not the sum.  One shard
        # never has two in-flight appends — its writer lock is held by
        # the dispatching transaction throughout.
        self._pool = ThreadPoolExecutor(
            max_workers=min(16, 4 * shards), thread_name_prefix="shard-io"
        )

    # -- routing -----------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard(self, sid: int) -> Database:
        return self.shards[sid]

    def shard_index(self, value: Any) -> int:
        return stable_hash(value) % len(self.shards)

    def placement(self, table: str) -> tuple:
        try:
            return self._placements[table]
        except KeyError:
            raise SchemaError(f"no table named {table!r}") from None

    def _assign_pk(self, table: str, values: dict[str, Any]) -> None:
        """Allocate / observe the primary key at the coordinator.

        Auto-increment pks must be unique *across* shards, so the
        coordinator owns the counter; per-shard allocators still observe
        every insert and stay consistent for standalone reopens.
        """
        allocator = self._allocators.get(table)
        if allocator is None:
            return
        pk_col = self.shards[0].table(table).schema.primary_key.name
        supplied = values.get(pk_col)
        if supplied is None:
            values[pk_col] = allocator.allocate()
        elif isinstance(supplied, int):
            allocator.observe(supplied)

    def _route_insert(
        self, table: str, placement: tuple, values: dict[str, Any]
    ) -> int:
        """The shard a new row of a partitioned *table* belongs on."""
        if placement[0] == "parent":
            column, parent_table = placement[1], placement[2]
            parent_pk = values.get(column)
            if parent_pk is not None:
                owner = self._probe_shard(parent_table, parent_pk)
                if owner is not None:
                    return owner
            pk_col = self.shards[0].table(table).schema.primary_key.name
            return self.shard_index(values.get(pk_col))
        return self.shard_index(values.get(placement[1]))

    def _probe_shard(self, table: str, pk: Any) -> "int | None":
        """Which shard holds row *pk* of *table* (live state), if any."""
        placement = self.placement(table)
        if placement[0] == "global":
            return 0 if pk in self.shards[0].table(table) else None
        if placement[0] == "hash":
            sid = self.shard_index(pk)
            return sid if pk in self.shards[sid].table(table) else None
        for sid, db in enumerate(self.shards):
            if pk in db.table(table):
                return sid
        return None

    def _owner(self, table: str, pk: Any) -> int:
        """The shard holding row *pk*; a missing row is an error."""
        sid = self._probe_shard(table, pk)
        if sid is None:
            raise RowNotFound(table, pk)
        return sid

    def _count_routing(self, routing: str) -> None:
        child = self._m_routing_children.get(routing)
        if child is None:
            child = self._m_routing.labels(routing=routing)
            self._m_routing_children[routing] = child
        child.inc()

    # -- schema ------------------------------------------------------------

    def create_table(self, schema: TableSchema):
        placement = self.router.classify(schema, self._placements)
        tables = [db.create_table(schema) for db in self.shards]
        self._placements[schema.name] = placement
        if schema.primary_key.type.name == "INT":
            self._allocators[schema.name] = IdAllocator()
        return tables[0]

    def table(self, name: str):
        """The live table — only where a single authoritative one exists.

        For global tables (identical on every shard) shard 0's table is
        the answer.  A partitioned table has no single ``Table``;
        callers must go through the coordinator's
        ``query``/``get``/``transaction`` surface instead.
        """
        if self.placement(name)[0] == "global":
            return self.shards[0].table(name)
        raise SchemaError(
            f"table {name!r} is partitioned across {len(self.shards)} "
            "shards; use the coordinator's query()/get()/transaction() "
            "surface"
        )

    def has_table(self, name: str) -> bool:
        return name in self._placements

    def table_names(self) -> list[str]:
        return list(self._placements)

    def table_dirty(self, name: str) -> bool:
        return any(db.table(name).dirty for db in self.shards)

    def version_vector(
        self, names: "Iterable[str] | None" = None
    ) -> dict[str, int]:
        """Per-shard, per-table committed versions for HTTP caching.

        Keys are ``"<shard>:<table>"`` — commit sequences are per-shard,
        so the vectors cannot be merged across shards (a max would let a
        commit on the lower-sequence shard go unnoticed).  Same exactness
        contract as :meth:`Database.version_vector`: the vector moves iff
        one of the named tables committed on some shard.
        """
        vector: dict[str, int] = {}
        for sid, db in enumerate(self.shards):
            for name, version in db.version_vector(names).items():
                vector[f"{sid}:{name}"] = version
        return vector

    def mutation_vector(
        self, names: "Iterable[str] | None" = None
    ) -> "dict[str, int | None]":
        """:meth:`Database.mutation_vector` per shard, keyed like
        :meth:`version_vector`."""
        return {
            f"{sid}:{name}": epoch
            for sid, db in enumerate(self.shards)
            for name, epoch in db.mutation_vector(names).items()
        }

    @property
    def committed_seq(self) -> int:
        """The highest commit sequence across shards (coarse progress
        token; per-shard read-your-writes needs the full vector)."""
        return max(db.committed_seq for db in self.shards)

    def add_column(self, table: str, column) -> None:
        for db in self.shards:
            db.add_column(table, column)

    # -- transactions ------------------------------------------------------

    def transaction(self, *, timeout: "float | None" = None) -> ShardedTransaction:
        with self._txn_lock:
            self._txn_counter += 1
            txn_id = self._txn_counter
        return ShardedTransaction(
            self, txn_id, self.lock_timeout if timeout is None else timeout
        )

    # -- 2PC decision log --------------------------------------------------

    def _record_decision(
        self, gtid: str, outcome: str, shards: list[int]
    ) -> None:
        """Durably record the commit decision — the 2PC commit point.

        Group-committed: concurrent deciders queue their records and the
        baton holder flushes the whole queue with a single write+fsync,
        so the decision log's one-file fsync stream stops being a global
        serial bottleneck under concurrent cross-shard load.  Returns
        only once *this* decision is on disk.
        """
        if self._decision_log is None:
            return
        done = threading.Event()
        failure: list[BaseException] = []
        with self._decision_mutex:
            self._decision_queue.append((gtid, outcome, shards, done, failure))
        while not done.is_set():
            with self._decision_lock:
                if done.is_set():
                    break  # a previous baton holder flushed us
                with self._decision_mutex:
                    batch = self._decision_queue
                    self._decision_queue = []
                try:
                    self._decision_log.append_decisions(
                        [(g, o, s) for g, o, s, _done, _fail in batch]
                    )
                except BaseException as exc:
                    for _g, _o, _s, entry_done, entry_fail in batch:
                        entry_fail.append(exc)
                        entry_done.set()
                else:
                    for _g, _o, _s, entry_done, _fail in batch:
                        entry_done.set()
        if failure:
            raise failure[0]

    def _load_decisions(self) -> dict[str, str]:
        """gtid → outcome from the decision log, torn tail healed."""
        if self._decision_log is None:
            return {}
        decisions: dict[str, str] = {}
        for record in self._decision_log.records():
            if record.get("kind") != "decision":
                continue
            gtid = record.get("gtid")
            if isinstance(gtid, str):
                decisions[gtid] = record.get("outcome", "abort")
        self._decision_log.truncate_torn_tail()
        return decisions

    # -- autocommit conveniences -------------------------------------------
    #
    # Single-statement writes to a non-global table always live on
    # exactly one shard, so they skip the ShardedTransaction wrapper
    # entirely and ride the owning shard's own autocommit path: the
    # routing work (pk allocation, placement hash) happens *before* the
    # shard writer lock is taken, instead of inside the hold as a
    # wrapped transaction would do it.  Global tables (and routing-column
    # updates, for the migration check) still go through the wrapper.

    def insert(self, table: str, values: dict[str, Any]) -> dict[str, Any]:
        placement = self.placement(table)
        if placement[0] == "global":
            with self.transaction() as txn:
                return txn.insert(table, values)
        values = dict(values)
        self._assign_pk(table, values)
        sid = self._route_insert(table, placement, values)
        self._count_routing("direct")
        return self.shards[sid].insert(table, values)

    def update(
        self, table: str, pk: Any, changes: dict[str, Any]
    ) -> dict[str, Any]:
        placement = self.placement(table)
        routed = placement[0] in ("project", "hash")
        if placement[0] == "global" or (routed and placement[1] in changes):
            # Global fan-out, or a routing-column change that needs the
            # wrapper's cross-shard migration check.
            with self.transaction() as txn:
                return txn.update(table, pk, changes)
        sid = self._owner(table, pk)
        self._count_routing("direct")
        return self.shards[sid].update(table, pk, changes)

    def delete(self, table: str, pk: Any) -> dict[str, Any]:
        if self.placement(table)[0] == "global":
            with self.transaction() as txn:
                return txn.delete(table, pk)
        sid = self._owner(table, pk)
        self._count_routing("direct")
        return self.shards[sid].delete(table, pk)

    def get(self, table: str, pk: Any) -> dict[str, Any]:
        row = self.get_or_none(table, pk)
        if row is None:
            raise RowNotFound(table, pk)
        return row

    def get_or_none(self, table: str, pk: Any) -> dict[str, Any] | None:
        sid = self._probe_shard(table, pk)
        if sid is None:
            return None
        return self.shards[sid].get_or_none(table, pk)

    def query(self, table: str, *, snapshot=None) -> ShardedQuery:
        """Start a scatter-gather fluent query, optionally snapshot-pinned."""
        return ShardedQuery(self, table, snapshot=snapshot)

    def count(self, table: str) -> int:
        if self.placement(table)[0] == "global":
            return self.shards[0].count(table)
        return sum(db.count(table) for db in self.shards)

    def rows(self, table: str) -> Iterator[dict[str, Any]]:
        if self.placement(table)[0] == "global":
            yield from self.shards[0].rows(table)
            return
        for db in self.shards:
            yield from db.rows(table)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> ShardedSnapshot:
        """Pin one snapshot per shard, atomically vs cross-shard commits.

        The publish lock is shared with 2PC phase 2, so the vector can
        never observe half of a cross-shard transaction.  Independent
        single-shard commits on different shards carry no cross-shard
        ordering, so the vector makes no causal promise about them (each
        shard's view is individually consistent).
        """
        with self._publish_lock:
            with self._vector_lock:
                sid = self._vector_counter
                self._vector_counter += 1
                self._open_vectors += 1
            parts = [db.snapshot() for db in self.shards]
        return ShardedSnapshot(self, sid, parts)

    def _release_vector(self, sid: int) -> None:
        with self._vector_lock:
            self._open_vectors -= 1

    def open_snapshots(self) -> int:
        """Open per-shard snapshots, aggregated across every shard."""
        return sum(db.open_snapshots() for db in self.shards)

    def open_snapshot_vectors(self) -> int:
        with self._vector_lock:
            return self._open_vectors

    def version_horizon(self) -> int:
        """Most conservative (lowest) per-shard pruning horizon."""
        return min(db.version_horizon() for db in self.shards)

    def prune_versions(self) -> dict[str, int]:
        """Sweep every shard; per-table reclaim counts summed across shards."""
        merged: dict[str, int] = {}
        for db in self.shards:
            for name, reclaimed in db.prune_versions().items():
                merged[name] = merged.get(name, 0) + reclaimed
        return merged

    # -- durability & recovery ---------------------------------------------

    def checkpoint(self) -> list[Path]:
        return [db.checkpoint() for db in self.shards]

    def recover(self) -> dict[str, int]:
        """Recover every shard, resolving in-doubt 2PC transactions.

        The coordinator's decision log is loaded first (torn tail
        healed); each shard then recovers with a resolver that rules
        ``commit`` exactly when the decision log holds a commit decision
        for the prepare's gtid — presumed abort otherwise.  Because each
        shard makes its resolution durable in its own WAL, the decision
        log is reset afterwards: nothing is in doubt once every shard
        has recovered.
        """
        decisions = self._load_decisions()

        def resolve(gtid: str) -> str:
            return decisions.get(gtid, "abort")

        totals: dict[str, int] = {}
        for db in self.shards:
            stats = db.recover(resolve_prepared=resolve)
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        # Re-seed the coordinator pk allocators from what the shards
        # actually hold, so fresh inserts never collide across shards.
        for name, allocator in self._allocators.items():
            for db in self.shards:
                for pk in db.table(name).pks():
                    if isinstance(pk, int):
                        allocator.observe(pk)
        if self._decision_log is not None:
            self._decision_log.reset()
        return totals

    # -- maintenance -------------------------------------------------------

    def verify_integrity(self) -> list[str]:
        problems: list[str] = []
        for sid, db in enumerate(self.shards):
            problems.extend(
                f"shard {sid}: {problem}" for problem in db.verify_integrity()
            )
        for name, placement in self._placements.items():
            if placement[0] == "global":
                reference = set(self.shards[0].table(name).pks())
                for sid in range(1, len(self.shards)):
                    other = set(self.shards[sid].table(name).pks())
                    if other != reference:
                        problems.append(
                            f"global table {name!r}: shard {sid} "
                            f"diverges from shard 0 "
                            f"({len(other ^ reference)} row(s) differ)"
                        )
            else:
                seen: dict[Any, int] = {}
                for sid, db in enumerate(self.shards):
                    for pk in db.table(name).pks():
                        if pk in seen:
                            problems.append(
                                f"table {name!r}: pk {pk!r} present on "
                                f"shards {seen[pk]} and {sid}"
                            )
                        else:
                            seen[pk] = sid
        return problems

    def rebuild_indexes(self) -> None:
        for db in self.shards:
            db.rebuild_indexes()

    def shard_status(self) -> list[dict[str, Any]]:
        """Per-shard health row for ``repro shard status`` and /admin."""
        status = []
        for sid, db in enumerate(self.shards):
            stats = db.statistics()
            status.append(
                {
                    "shard": sid,
                    "committed_seq": stats["mvcc"]["committed_seq"],
                    "wal_bytes": stats["wal_bytes"],
                    "open_snapshots": stats["mvcc"]["open_snapshots"],
                    "version_horizon": stats["mvcc"]["version_horizon"],
                    "rows": stats["total_rows"],
                    "transactions": stats["transactions"],
                }
            )
        return status

    def statistics(self) -> dict[str, Any]:
        """Aggregated view matching ``Database.statistics()`` keys,
        plus a ``sharding`` section with the per-shard breakdown."""
        tables = {name: self.count(name) for name in self._placements}
        per_shard = [db.statistics() for db in self.shards]
        cache = {
            "entries": sum(s["query_cache"]["entries"] for s in per_shard),
            "capacity": sum(s["query_cache"]["capacity"] for s in per_shard),
            "lookups": {},
            "evictions": sum(
                s["query_cache"]["evictions"] for s in per_shard
            ),
        }
        for s in per_shard:
            for key, value in s["query_cache"]["lookups"].items():
                cache["lookups"][key] = cache["lookups"].get(key, 0) + value
        return {
            "tables": tables,
            "total_rows": sum(tables.values()),
            "wal_bytes": sum(s["wal_bytes"] for s in per_shard),
            "transactions": sum(s["transactions"] for s in per_shard),
            "durability": self.durability.spec(),
            "query_cache": cache,
            "mvcc": {
                "committed_seq": max(
                    s["mvcc"]["committed_seq"] for s in per_shard
                ),
                "open_snapshots": sum(
                    s["mvcc"]["open_snapshots"] for s in per_shard
                ),
                "version_horizon": min(
                    s["mvcc"]["version_horizon"] for s in per_shard
                ),
                "retained_versions": sum(
                    s["mvcc"]["retained_versions"] for s in per_shard
                ),
            },
            "sharding": {
                "shards": len(self.shards),
                "open_snapshot_vectors": self.open_snapshot_vectors(),
                "placements": {
                    name: placement[0]
                    for name, placement in self._placements.items()
                },
                "per_shard": self.shard_status(),
            },
        }

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        for db in self.shards:
            db.close()
        if self._decision_log is not None:
            self._decision_log.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
