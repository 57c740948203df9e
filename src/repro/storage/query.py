"""Fluent queries with index-aware planning.

Example::

    resources = (
        db.query("data_resource")
        .where("project_id", "=", 42)
        .where("size_bytes", ">=", 1_000_000)
        .order_by("created_at", descending=True)
        .limit(20)
        .all()
    )

Planning is **cost based**: the planner enumerates every candidate
access path — primary-key hit, composite/single hash probe, an ``IN``
list probed value by value, hash-index intersection, ordered-index
range seek, composite prefix seek (equality
on a key prefix + range on the next column), covering skip-fetch reads,
and LIMIT-aware ordered rides — prices each with the table's statistics
(live row count, O(1) exact distinct counts off the indexes, reservoir
NDV estimates, O(log n) range probes), and picks the cheapest.
A primary-key equality short-circuits all of that: its plan is
returned without pricing anything else.

Planning once per shape: which access paths apply depends on the
query's *shape* — its conditions' columns and operators, which values
are NULL, whether an ``IN`` list hashes, the order, paging and
projection — not on its values.  Each table memoizes, per shape, the
value-free paths and the subset that some other path does not beat for
every value (a scan loses to any equality probe or seek).  A call binds
its values to those survivors and prices them only when more than one
is left.  :meth:`Query.explain` reports the chosen strategy — the A1
index ablation benchmark relies on it — plus estimated rows/cost, the
alternatives (enumerated and priced afresh when asked for), the query
fingerprint, and the result-cache status; ``explain(analyze=True)``
adds the actual row count so estimation error is visible.

Result caching: every :meth:`Query.all`/:meth:`Query.count` consults the
database's :class:`QueryCache`, a bounded LRU keyed on ``(table,
committed version, kind, shape, values)``, each value beside its type.
The key is purely syntactic — the query as written — so a lookup never
plans; the planner runs on a miss only.  Because the table version only
advances on commit, invalidation is a single integer comparison: any
committed write makes every older entry unreachable, while rolled-back
transactions leave the version — and the cache — intact.  While a
transaction has uncommitted changes on a table the cache is *bypassed*
in both directions, so dirty state is never served or stored.

Snapshot execution: a query built from a
:class:`~repro.storage.snapshot.Snapshot` (``snap.query(...)`` or
``Query(table, snapshot=snap)``) resolves rows from the version chains
at the snapshot's commit sequence number and never takes the writer
lock.  The planner still uses the live indexes while the table has not
committed past the snapshot — seqlock epoch stable across planning,
and the pks an open transaction touched added to the candidates — and
otherwise degrades to a chain-walking scan.  Cache keys are identical
in both modes whenever the table hasn't committed past the snapshot, so
snapshot readers and live readers share cached results; a snapshot of
an older state bypasses the cache (historical versions are not keyed).
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import SchemaError
from repro.storage.table import note_table_read
from repro.storage.types import PLAIN_TYPES, sort_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.storage.snapshot import Snapshot
    from repro.storage.table import Table

#: Result-cache entries kept per database when unconfigured.
DEFAULT_QUERY_CACHE_SIZE = 256

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and sort_key(a) < sort_key(b),
    "<=": lambda a, b: a is not None and sort_key(a) <= sort_key(b),
    ">": lambda a, b: a is not None and sort_key(a) > sort_key(b),
    ">=": lambda a, b: a is not None and sort_key(a) >= sort_key(b),
    "in": lambda a, b: a in b,
    "contains": lambda a, b: (
        b.lower() in a.lower() if isinstance(a, str) else (a is not None and b in a)
    ),
    "startswith": lambda a, b: isinstance(a, str) and a.startswith(b),
    "is_null": lambda a, b: (a is None) == b,
}

_RANGE_OPS = {"<", "<=", ">", ">="}

#: Value types of a pk ``IN`` the planner answers with dict hits.
_PK_SETS = (list, tuple, set, frozenset)


def _pk_order(bucket: "tuple | set[Any]") -> Any:
    """The pks under one index key, in pk order — which keeps ordered
    output and LIMIT row selection deterministic across plan
    strategies.  Primary keys are INT or TEXT (the schema insists), so
    plain ``sorted`` is :func:`sort_key` order.  Copies either way (one
    atomic call): *bucket* may be an index's live set, which a writer
    may be resizing; a 1-tuple bucket is immutable."""
    return tuple(bucket) if len(bucket) < 2 else sorted(bucket)


def _hashable_list(value: Any) -> bool:
    """Whether an ``IN`` over *value* can be probed member by member: a
    list, tuple, set or frozenset whose members all hash."""
    if not isinstance(value, _PK_SETS):
        return False
    try:
        hash(tuple(value))
    except TypeError:
        return False
    return True


def _fold_bounds(conds: "list[Condition]") -> "tuple[Any, bool, Any, bool]":
    """``(low, include_low, high, include_high)``: the tightest bounds of
    the range conditions *conds* on one column.  Lower bounds subsume
    looser lower bounds (and ditto for upper), so all of them leave the
    residual."""
    low: Any = None
    high: Any = None
    include_low = include_high = True
    for c in conds:
        if c.op in (">", ">="):
            inclusive = c.op == ">="
            if low is None or sort_key(c.value) > sort_key(low):
                low, include_low = c.value, inclusive
            elif sort_key(c.value) == sort_key(low) and not inclusive:
                include_low = False
        else:
            inclusive = c.op == "<="
            if high is None or sort_key(c.value) < sort_key(high):
                high, include_high = c.value, inclusive
            elif sort_key(c.value) == sort_key(high) and not inclusive:
                include_high = False
    return low, include_low, high, include_high


def _union(index: Any, keys: "list[tuple]") -> "set[Any]":
    """The pks filed under any of *keys* in *index* (an ``IN`` plan)."""
    return set().union(*map(index.members, keys))


def _sort_rows(
    rows: "list[dict[str, Any]]", column: str, descending: bool, native: bool
) -> "list[dict[str, Any]]":
    """*rows* stably sorted on *column* in :func:`sort_key` order, NULLs
    first (last when *descending*, as ``reverse`` puts them).

    A *native* column (one of ``PLAIN_TYPES``) sorts on its values in C.
    NULLs, and rows without the column at all (a snapshot pinned before
    ``add_column``), do not compare with values; they are set apart in
    their input order instead.
    """
    if not native:
        return sorted(
            rows, key=lambda r: sort_key(r.get(column)), reverse=descending
        )
    value = itemgetter(column)
    try:
        return sorted(rows, key=value, reverse=descending)
    except (KeyError, TypeError):
        pass
    nulls = [r for r in rows if r.get(column) is None]
    present = [r for r in rows if r.get(column) is not None]
    present.sort(key=value, reverse=descending)
    return present + nulls if descending else nulls + present


@dataclass(frozen=True)
class Condition:
    """One ``column <op> value`` predicate."""

    column: str
    op: str
    value: Any

    def matches(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.column)
        if self.op in ("=", "!=") or self.op in _RANGE_OPS:
            # SQL three-valued logic: comparing with NULL is never true.
            if self.value is None or actual is None:
                return False
        elif self.op == "in" and actual is None:
            return False
        return _OPS[self.op](actual, self.value)


class F:
    """Shorthand condition factory: ``F.eq("name", "x")`` etc."""

    @staticmethod
    def eq(column: str, value: Any) -> Condition:
        return Condition(column, "=", value)

    @staticmethod
    def ne(column: str, value: Any) -> Condition:
        return Condition(column, "!=", value)

    @staticmethod
    def lt(column: str, value: Any) -> Condition:
        return Condition(column, "<", value)

    @staticmethod
    def le(column: str, value: Any) -> Condition:
        return Condition(column, "<=", value)

    @staticmethod
    def gt(column: str, value: Any) -> Condition:
        return Condition(column, ">", value)

    @staticmethod
    def ge(column: str, value: Any) -> Condition:
        return Condition(column, ">=", value)

    @staticmethod
    def isin(column: str, values: Any) -> Condition:
        return Condition(column, "in", tuple(values))

    @staticmethod
    def contains(column: str, value: Any) -> Condition:
        return Condition(column, "contains", value)

    @staticmethod
    def startswith(column: str, value: str) -> Condition:
        return Condition(column, "startswith", value)

    @staticmethod
    def is_null(column: str, flag: bool = True) -> Condition:
        return Condition(column, "is_null", flag)


class QueryCache:
    """Bounded LRU of query results keyed on ``(table, version, kind,
    shape, values)`` (:meth:`Query._cache_key`).  The query's
    :meth:`~Query.fingerprint` keys an entry only when one of its values
    cannot be hashed (a JSON dict, an ``IN`` over a list).

    Entries for superseded table versions are never served (the key no
    longer matches) and age out through the LRU bound; no explicit
    invalidation pass is needed.  A stored result is one tuple of the
    table's own immutable version payloads (``RowVersion`` contract:
    never mutated once linked), so an entry costs one object, not one
    per row, and keeps serving its version's rows after the chains
    pruned them.  :meth:`Query.all` hands every caller fresh shallow
    copies, so neither the table nor a cached entry can be changed
    through a returned row's keys; nested values (a JSON column's
    dict) are shared with the table, as they always were.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_QUERY_CACHE_SIZE,
        *,
        obs: "Observability | None" = None,
    ):
        self.capacity = max(0, int(capacity))
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._m_lookups = None
        self._m_evictions = None
        #: outcome -> resolved counter child (labels() once, not per lookup)
        self._outcomes: dict[str, Any] = {}
        if obs is not None:
            self._m_lookups = obs.metrics.counter(
                "storage_query_cache_total",
                "Query-result cache lookups by outcome",
                labels=("result",),
            )
            self._m_evictions = obs.metrics.counter(
                "storage_query_cache_evictions_total",
                "Query-result cache entries evicted by the LRU bound",
            ).labels()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def record(self, result: str) -> None:
        """Count one lookup outcome (``hit`` / ``miss`` / ``bypass``)."""
        if self._m_lookups is not None:
            child = self._outcomes.get(result)
            if child is None:
                child = self._outcomes[result] = self._m_lookups.labels(
                    result=result
                )
            child.inc()

    def get(self, key: tuple) -> Any | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def peek(self, key: tuple) -> bool:
        """Presence check without touching LRU order or metrics."""
        with self._lock:
            return key in self._entries

    def put(self, key: tuple, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                if self._m_evictions is not None:
                    self._m_evictions.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def statistics(self) -> dict[str, Any]:
        lookups: dict[str, float] = {}
        if self._m_lookups is not None:
            for labels, child in self._m_lookups.samples():
                lookups[labels["result"]] = child.value
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "lookups": lookups,
            "evictions": (
                self._m_evictions.value if self._m_evictions is not None else 0
            ),
        }


# -- cost model -------------------------------------------------------------
#
# Arbitrary units; only the ratios matter.  A plan costs roughly
# "probe overhead + rows examined x per-row work", where per-row work is
# the row-store fetch plus one term per residual predicate.  Covering
# plans skip the row fetch and pay only the (cheaper) synthesis cost;
# scans pay a flat setup so tiny tables still prefer a ready index.
SEEK_COST = 1.0          # one index probe (hash hit / binary search)
SCAN_SETUP_COST = 2.0    # materializing the pk list for a full scan
ROW_FETCH_COST = 1.0     # resolving one pk against the row store
COVERING_ROW_COST = 0.25  # synthesizing one row from an index entry
RESIDUAL_COST = 0.25     # evaluating one residual predicate on one row
INTERSECT_COST = 0.2     # per-element set-intersection bookkeeping

#: Query shapes whose access paths one table memoizes.
PLAN_MEMO_SIZE = 256
#: Serializes memo insertions (a miss per new shape): eviction walks the
#: dict, which another thread's insertion must not resize meanwhile.
_plan_memo_lock = threading.Lock()


@dataclass(frozen=True)
class _Path:
    """One access path of a query shape, free of values.

    Conditions are named by their position in the query: ``drive`` are
    the ones an index is probed with (a hash probe's, in index column
    order; an ``IN``'s; an intersection's, one per index; a seek's
    equality prefix), ``bounds`` the range conditions a seek folds into
    ``[low, high]``, ``residual`` the ones every fetched row is checked
    against.  :meth:`Query._bind` turns a path into a :class:`Plan`.
    """

    strategy: str
    kind: str
    residual: "tuple[int, ...]"
    drive: "tuple[int, ...]" = ()
    bounds: "tuple[int, ...]" = ()
    index: Any = None
    indexes: tuple = ()
    exclude_null: bool = False
    descending: bool = False
    ordered: "tuple[tuple[str, bool], ...]" = ()
    early_exit: bool = False


@dataclass(frozen=True)
class _Paths:
    """One shape's memo entry: ``every`` applicable path in enumeration
    order (the scan last), and the ``survivors`` — every path but those
    another path beats for all values."""

    every: "tuple[_Path, ...]"
    survivors: "tuple[_Path, ...]"


@dataclass
class Plan:
    """One candidate access path, bound to the query's values and priced
    by the cost model (a plan chosen without a rival is not priced).

    ``kind`` drives execution:

    * ``scan`` — full row-store pass;
    * ``pks`` — a pre-materialized candidate pk set (primary-key hits,
      and every index plan once pinned for snapshot execution);
    * ``hash`` — one equality probe (hash or ordered index) at execution;
    * ``in`` — one equality probe per ``IN`` member, the buckets' union;
    * ``intersect`` — several single-column equality probes ANDed together;
    * ``seek`` — lazy ordered-index iteration (range / prefix / ordered
      ride), fetching rows pk by pk;
    * ``covering`` — the same seek, but rows are synthesized from the
      index entries and the row store is never touched.

    ``strategy`` is the stable human-readable label reported by
    :meth:`Query.explain`.  ``ordered`` names the natural output order
    a seek produces — ``(column, descending)`` pairs for the index
    columns after the pinned prefix — which lets execution skip sorting
    and honor LIMIT with early exit (``early_exit``).  ``rivals``
    prices every access path of the same query afresh (the chosen one
    included); only :meth:`Query.explain` calls it, for its
    ``alternatives``.  The degraded snapshot scan has none.
    """

    strategy: str
    kind: str
    residual: list[Condition]
    cost: float = 0.0
    estimated_rows: int = 0
    pks: "set[Any] | None" = None
    index: Any = None
    key: "tuple | None" = None
    indexes: "list[Any] | None" = None   # intersect: probed indexes
    keys: "list[tuple] | None" = None    # intersect: one key per index; in: per member
    prefix: tuple = ()
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True
    exclude_null: bool = False
    descending: bool = False
    ordered: "tuple[tuple[str, bool], ...]" = ()
    early_exit: bool = False
    candidates: int = 0
    rivals: "Callable[[], list[Plan]] | None" = None


class Query:
    """Immutable-ish fluent query builder over one table."""

    def __init__(self, table: "Table", *, snapshot: "Snapshot | None" = None):
        self._table = table
        self._snapshot = snapshot
        self._conditions: list[Condition] = []
        self._order: list[tuple[str, bool]] = []  # (column, descending)
        self._limit: int | None = None
        self._offset: int = 0
        self._use_indexes = True
        self._select: "tuple[str, ...] | None" = None
        #: Single-column range estimates priced so far by the running
        #: :meth:`_plan` call (``None`` outside one).
        self._estimates: "dict[tuple, tuple[int, float]] | None" = None
        #: ``(shape, values)`` as :meth:`_shape_and_values` last built
        #: them; every builder method drops it.
        self._keyed: "tuple[tuple, tuple] | None" = None

    # -- building ----------------------------------------------------------------

    def where(self, column: str, op: str = "=", value: Any = None) -> "Query":
        """Add a predicate.  ``op`` is one of ``= != < <= > >= in contains
        startswith is_null``."""
        if op not in _OPS:
            raise SchemaError(f"unknown operator {op!r}")
        if not self._table.schema.has_column(column):
            raise SchemaError(
                f"table {self._table.name!r} has no column {column!r}"
            )
        self._conditions.append(Condition(column, op, value))
        self._keyed = None
        return self

    def filter(self, *conditions: Condition) -> "Query":
        """Add prebuilt :class:`Condition` objects (see :class:`F`)."""
        for cond in conditions:
            if not self._table.schema.has_column(cond.column):
                raise SchemaError(
                    f"table {self._table.name!r} has no column {cond.column!r}"
                )
            self._conditions.append(cond)
        self._keyed = None
        return self

    def order_by(self, column: str, *, descending: bool = False) -> "Query":
        if not self._table.schema.has_column(column):
            raise SchemaError(
                f"table {self._table.name!r} has no column {column!r}"
            )
        self._order.append((column, descending))
        self._keyed = None
        return self

    def limit(self, n: int) -> "Query":
        if n < 0:
            raise SchemaError("limit must be >= 0")
        self._limit = n
        self._keyed = None
        return self

    def offset(self, n: int) -> "Query":
        if n < 0:
            raise SchemaError("offset must be >= 0")
        self._offset = n
        self._keyed = None
        return self

    def select(self, *columns: str) -> "Query":
        """Project results to *columns* (plus the primary key).

        Beyond trimming payloads, a projection is what makes **covering
        plans** possible: when an ordered index stores every selected,
        filtered, and ordered column, the planner can answer the query
        from index entries alone and never touch the row store.
        """
        for column in columns:
            if not self._table.schema.has_column(column):
                raise SchemaError(
                    f"table {self._table.name!r} has no column {column!r}"
                )
        self._select = tuple(columns)
        self._keyed = None
        return self

    def without_indexes(self) -> "Query":
        """Force a full scan (used by the index-ablation benchmark)."""
        self._use_indexes = False
        return self

    # -- planning ------------------------------------------------------------------

    def _selectivity(self, cond: Condition) -> float:
        """Fraction of rows expected to satisfy *cond* (0..1).

        Statistics-driven: equality uses the best-available distinct
        count (exact off an index, else the reservoir-sample estimate),
        range predicates probe the ordered index in O(log n), NULL
        predicates use the sampled null fraction.  Everything else gets
        the classic textbook constants.
        """
        tbl = self._table
        if cond.op == "=":
            if cond.value is None:
                return 0.0  # `= NULL` never matches
            return 1.0 / max(1, tbl.distinct_count(cond.column))
        if cond.op in _RANGE_OPS:
            if cond.value is None:
                return 0.0
            sx = tbl.ordered_index_for((cond.column,))
            if sx is not None and len(sx) > 0:
                if cond.op in (">", ">="):
                    _keys, est = self._estimate_range(
                        sx, (), low=cond.value, include_low=cond.op == ">="
                    )
                else:
                    _keys, est = self._estimate_range(
                        sx,
                        (),
                        high=cond.value,
                        include_high=cond.op == "<=",
                        exclude_null=True,
                    )
                return min(1.0, est / max(1, len(sx)))
            return 1 / 3
        if cond.op == "in":
            try:
                n = len(cond.value)
            except TypeError:
                n = 1
            return min(1.0, n / max(1, tbl.distinct_count(cond.column)))
        if cond.op == "is_null":
            nf = tbl.statistics().null_fraction(cond.column)
            return nf if cond.value else max(0.0, 1.0 - nf)
        if cond.op == "!=":
            return max(0.0, 1.0 - 1.0 / max(1, tbl.distinct_count(cond.column)))
        return 0.5

    def _estimate_range(
        self,
        index: Any,
        prefix: tuple,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        exclude_null: bool = False,
    ) -> tuple[int, float]:
        """``index.estimate_range``, priced once per range within one
        :meth:`_plan` call: a rival's selectivity (an ``IN`` plan whose
        residual is the range) and the seek over the same bounds share
        it.  Values are told apart by identity (they
        are the conditions' own), so values that are equal but not
        :func:`sort_key`-equal never share."""
        memo = self._estimates
        key = (
            id(index),
            tuple(map(id, prefix)),
            id(low),
            id(high),
            include_low,
            include_high,
            exclude_null,
        )
        if memo is not None and key in memo:
            return memo[key]
        estimate = index.estimate_range(
            prefix,
            low,
            high,
            include_low=include_low,
            include_high=include_high,
            exclude_null=exclude_null,
        )
        if memo is not None:
            memo[key] = estimate
        return estimate

    def _selectivity_product(self, conds: "list[Condition]") -> float:
        sel = 1.0
        for cond in conds:
            sel *= self._selectivity(cond)
        return max(0.0, min(1.0, sel))

    def _est(self, examined: float, residual: "list[Condition]") -> int:
        """Estimated result rows: examined rows × residual selectivity."""
        return int(round(examined * self._selectivity_product(residual)))

    def _priced_rows(self, examined: float, residual: list, early_exit: bool) -> float:
        """Rows a plan pays to fetch: all it examines, or under an early
        exit only as many as it takes to fill the page."""
        if not early_exit:
            return examined
        page = self._offset + self._limit
        return min(examined, page / max(self._selectivity_product(residual), 1e-9))

    def _scan_plan(self) -> Plan:
        return self._price(Plan("scan", "scan", list(self._conditions)))

    def _plan(self) -> Plan:
        """Choose the cheapest access path for the current query shape.

        Runs only when a result must be computed (cache miss or bypass)
        or explained; the cache key is syntactic and never plans.

        Snapshot queries may use the live indexes while the table has
        not committed past the snapshot (:meth:`Table.read_at`, seqlock
        guarded across planning).  Their chosen plan is **pinned** —
        candidate pks are materialized under the guard — because
        execution resolves rows through the version chains later.  A
        failed guard degrades to a chain-walking scan.
        """
        self._estimates = {}
        try:
            if self._snapshot is None:
                return self._plan_live()
            plan = self._table.read_at(
                self._snapshot.seq,
                lambda pending: self._materialize(
                    self._plan_live(for_snapshot=True), pending
                ),
            )
            return self._scan_plan() if plan is None else plan
        finally:
            self._estimates = None

    def _materialize(self, plan: Plan, pending: "set[Any]") -> Plan:
        """Pin a deferred plan's candidate pks (snapshot path).  The pks
        an open transaction touched (*pending*) join them, and every
        condition is re-checked: the live indexes (and the pk plan's
        existence check) see those rows as that transaction left them."""
        residual = plan.residual
        if plan.kind == "pks":
            if not pending:
                return plan
            pks = plan.pks
        elif plan.kind == "hash":
            pks = plan.index.lookup(plan.key)
        elif plan.kind == "in":
            pks = _union(plan.index, plan.keys)
        elif plan.kind == "intersect":
            assert plan.indexes is not None and plan.keys is not None
            sets = sorted(
                (
                    index.lookup(key)
                    for index, key in zip(plan.indexes, plan.keys)
                ),
                key=len,
            )
            pks = set(sets[0]).intersection(*sets[1:]) if sets else set()
        elif plan.kind == "seek":
            pks = set(
                plan.index.range_pks(
                    plan.prefix,
                    plan.low,
                    plan.high,
                    include_low=plan.include_low,
                    include_high=plan.include_high,
                    exclude_null=plan.exclude_null,
                )
            )
        else:
            return plan
        if pending:
            pks |= pending
            residual = list(self._conditions)
        return replace(
            plan,
            kind="pks",
            pks=pks,
            residual=residual,
            ordered=(),
            early_exit=False,
            candidates=len(pks),
        )

    def _plan_live(self, *, for_snapshot: bool = False) -> Plan:
        """Cheapest live access path.  A primary-key equality is taken
        without pricing anything else: at most one row is fetched, and
        what the other paths would have cost matters only to
        :meth:`explain`, which re-prices them through ``Plan.rivals``.

        Otherwise the shape's surviving paths come from the table's
        memo, bound to this query's values; one survivor is taken
        unpriced, several are priced on the current statistics."""
        if not self._use_indexes:
            return self._scan_plan()
        best = self._pk_plan()
        if best is None:
            plans = [self._bind(p) for p in self._paths(for_snapshot).survivors]
            if len(plans) == 1:
                best = plans[0]
            else:
                # min() is stable: the first candidate wins cost ties.
                best = min(map(self._price, plans), key=lambda p: p.cost)
        best.rivals = lambda: self._candidate_plans(for_snapshot)
        return best

    def _pk_plan(self) -> "Plan | None":
        """Primary-key equality, or a pk ``IN`` list: a dict hit per
        value, yielding pk order like every other index plan.  A list
        with an unhashable member is left to the other plans."""
        tbl = self._table
        pk_col = tbl.pk_column
        cond = None
        for c in self._conditions:
            if c.column != pk_col:
                continue
            # `= NULL` never matches (SQL semantics): it stays residual.
            if c.op == "=" and c.value is not None:
                cond = c
            elif (
                c.op == "in"
                and isinstance(c.value, _PK_SETS)
                and (cond is None or cond.op == "in")
            ):
                cond = c
        if cond is None:
            return None
        if cond.op == "=":
            pks = {cond.value} if cond.value in tbl else set()
        else:
            try:
                pks = {v for v in cond.value if v in tbl}
            except TypeError:  # an unhashable member
                return None
        residual = [c for c in self._conditions if c is not cond]
        cost = SEEK_COST + len(pks) * (
            ROW_FETCH_COST + len(residual) * RESIDUAL_COST
        )
        return Plan(
            "pk",
            "pks",
            residual,
            cost,
            self._est(len(pks), residual),
            pks=pks,
            candidates=len(pks),
        )

    def _candidate_plans(self, for_snapshot: bool) -> "list[Plan]":
        """Every applicable access path, enumerated afresh (not from the
        memo) and priced; the pk plan first, the scan last."""
        plans = [
            self._price(self._bind(path))
            for path in self._enumerate(for_snapshot).every
        ]
        pk_plan = self._pk_plan()
        return plans if pk_plan is None else [pk_plan, *plans]

    def _paths(self, for_snapshot: bool) -> _Paths:
        """The shape's paths from the table's memo, enumerated on a miss."""
        tbl = self._table
        memo = tbl.plan_memo
        key = (for_snapshot, self._shape_and_values()[0])
        paths = memo.get(key)
        if paths is not None:
            tbl.m_plans_memo.inc()
            return paths
        paths = self._enumerate(for_snapshot)
        with _plan_memo_lock:
            if len(memo) >= PLAN_MEMO_SIZE:
                del memo[next(iter(memo))]  # the oldest shape
            memo[key] = paths
        tbl.m_plans_enumerated.inc()
        return paths

    def _enumerate(self, for_snapshot: bool) -> _Paths:
        """Every access path the query's shape admits, free of values,
        in the order that breaks cost ties: equality probes, ``IN``
        probes, the intersection, ordered-index seeks, the scan.

        Reads of a value are limited to what the shape holds: whether it
        is NULL, and whether an ``IN`` list hashes.  The scan does not
        survive an equality probe or a seek: each examines at most the
        table's live rows (a bucket, or matching keys × average bucket),
        pays one ``SEEK_COST`` probe against the scan's larger
        ``SCAN_SETUP_COST``, and checks a subset of its predicates per
        row, so it is cheaper for every value."""
        tbl = self._table
        conds = self._conditions
        positions = range(len(conds))

        def rest(used: "tuple[int, ...]") -> "tuple[int, ...]":
            return tuple(i for i in positions if i not in used)

        # `= NULL` never matches (SQL semantics), so such predicates must
        # not drive an index lookup — they stay residual and reject rows.
        # The last equality on a column drives, the others stay residual.
        eq: dict[str, int] = {}
        ranges: dict[str, list[int]] = {}
        for i, c in enumerate(conds):
            if c.value is None:
                continue
            if c.op == "=":
                eq[c.column] = i
            elif c.op in _RANGE_OPS:
                ranges.setdefault(c.column, []).append(i)
        paths: list[_Path] = []

        # Equality probes: every plain or unique index whose columns are
        # all equality-constrained (a single column's ordered index is
        # probed here, not again as a prefix seek).  Longest specs first
        # so cost ties resolve to the most specific index.  Without ORDER
        # BY a probe stops at the page, as a seek does.
        probes = [
            index
            for index in (*tbl.hash_indexes(), *tbl._unique_indexes)
            if all(col in eq for col in index.columns)
        ]
        probes.sort(key=lambda index: -len(index.columns))
        early_exit = self._limit is not None and not self._order
        for index in probes:
            drive = tuple(eq[col] for col in index.columns)
            paths.append(
                _Path(
                    f"index:{index.name}",
                    "hash",
                    rest(drive),
                    drive,
                    index=index,
                    early_exit=early_exit,
                )
            )

        # IN lists: a probe per distinct non-NULL member of a single
        # column's plain or unique index.  A member that cannot be
        # hashed leaves the list to the other plans.
        for i, c in enumerate(conds):
            if c.op != "in" or not _hashable_list(c.value):
                continue
            for index in (
                tbl.hash_index_for((c.column,)),
                tbl.unique_index_for((c.column,)),
            ):
                if index is not None:
                    paths.append(
                        _Path(f"in:{index.name}", "in", rest((i,)), (i,), index=index)
                    )

        # Index intersection: AND several single-column equality probes.
        singles: list[tuple[int, Any]] = []
        for col, i in eq.items():
            index = tbl.hash_index_for((col,))
            if index is None:
                index = tbl.unique_index_for((col,))
            if index is not None:
                singles.append((i, index))
        if len(singles) >= 2:
            drive = tuple(i for i, _ in singles)
            paths.append(
                _Path(
                    "intersect:" + "+".join(index.name for _, index in singles),
                    "intersect",
                    rest(drive),
                    drive,
                    indexes=tuple(index for _, index in singles),
                )
            )

        # Ordered-index seeks: equality on a key prefix, a folded range
        # on the next column, covering variants, LIMIT-aware order rides.
        for index in tbl.ordered_indexes():
            paths.extend(self._seek_paths(index, eq, ranges, rest, for_snapshot))

        dominated = any(p.kind in ("hash", "seek") for p in paths)
        paths.append(_Path("scan", "scan", tuple(positions)))
        every = tuple(paths)
        return _Paths(every, every[:-1] if dominated else every)

    def _seek_paths(
        self,
        index: Any,
        eq: "dict[str, int]",
        ranges: "dict[str, list[int]]",
        rest: "Callable[[tuple[int, ...]], tuple[int, ...]]",
        for_snapshot: bool,
    ) -> "list[_Path]":
        """The seek (and covering) paths over one ordered index."""
        cols = index.columns
        prefix: list[int] = []
        for col in cols:
            if col not in eq:
                break
            prefix.append(eq[col])
        k = len(prefix)
        if k == len(cols) == 1:
            return []  # a single column's equality probe is priced once

        # Every range predicate on the first free column folds into one
        # [low, high] (at binding), so all of them leave the residual.
        bounds = tuple(ranges.get(cols[k], ())) if k < len(cols) else ()
        if k == 0 and not bounds:
            # Only worth planning as an ordered ride with a LIMIT; the
            # snapshot path skips it (pinning would walk the full index).
            if for_snapshot or not self._order or self._limit is None:
                return []

        free = cols[k:]
        descending = False
        satisfies_order = False
        if self._order and free:
            want_cols = [c for c, _ in self._order]
            directions = {d for _, d in self._order}
            if len(directions) == 1 and want_cols == list(
                free[: len(want_cols)]
            ):
                satisfies_order = True
                descending = directions.pop()
        if k == 0 and not bounds and not satisfies_order:
            # A bare ride earns its keep only by producing the
            # requested order; an unhelpful one is just a scan in
            # index order, so the index is not even probed.
            return []

        conds = self._conditions
        drive = tuple(prefix)
        residual = rest(drive + bounds)
        if k > 0:
            strategy = f"prefix:{index.name}"
        elif bounds:
            strategy = f"range:{index.name}"
        else:
            strategy = f"order:{index.name}"
        seek = _Path(
            strategy,
            "seek",
            residual,
            drive,
            bounds,
            index=index,
            # A seek bounded only from above must structurally skip NULL
            # keys: range predicates never match NULL.
            exclude_null=bool(bounds)
            and all(conds[i].op in ("<", "<=") for i in bounds),
            descending=descending,
            ordered=tuple((c, descending) for c in free),
            early_exit=self._limit is not None
            and (not self._order or satisfies_order),
        )
        paths = [seek]

        # Covering variant: every needed column lives in the index (the
        # pk rides along in the entries), so skip the row fetch.  Only
        # offered under an explicit projection — callers without
        # select() expect full rows — and not to snapshots, whose
        # synthesis would read the live index at execution time,
        # outside the seqlock guard.  The residual is checked on the
        # key alone, before the pk joins it, so it must not name the pk.
        if not for_snapshot and self._select is not None:
            needed = set(self._select)
            needed |= {c for c, _ in self._order}
            needed.discard(self._table.pk_column)
            needed |= {conds[i].column for i in residual}
            if needed <= set(cols):
                paths.append(
                    replace(seek, strategy=f"covering:{index.name}", kind="covering")
                )
        return paths

    def _bind(self, path: _Path) -> Plan:
        """*path* with this query's values in it, not yet priced."""
        conds = self._conditions
        residual = [conds[i] for i in path.residual]
        kind = path.kind
        if kind == "hash":
            return Plan(
                path.strategy,
                kind,
                residual,
                index=path.index,
                key=tuple(conds[i].value for i in path.drive),
                early_exit=path.early_exit,
            )
        if kind == "in":
            values = conds[path.drive[0]].value
            return Plan(
                path.strategy,
                kind,
                residual,
                index=path.index,
                keys=[(v,) for v in {v for v in values if v is not None}],
            )
        if kind == "intersect":
            return Plan(
                path.strategy,
                kind,
                residual,
                indexes=list(path.indexes),
                keys=[(conds[i].value,) for i in path.drive],
            )
        if kind == "scan":
            return Plan(path.strategy, kind, residual)
        low, include_low, high, include_high = _fold_bounds(
            [conds[i] for i in path.bounds]
        )
        return Plan(
            path.strategy,
            kind,
            residual,
            index=path.index,
            prefix=tuple(conds[i].value for i in path.drive),
            low=low,
            high=high,
            include_low=include_low,
            include_high=include_high,
            exclude_null=path.exclude_null,
            descending=path.descending,
            ordered=path.ordered,
            early_exit=path.early_exit,
        )

    def _price(self, plan: Plan) -> Plan:
        """Fill in *plan*'s cost, estimated rows and candidates from the
        table's current statistics; returns *plan*."""
        residual = plan.residual
        kind = plan.kind
        if kind == "scan":
            examined: float = len(self._table)
            cost = SCAN_SETUP_COST + examined * (
                ROW_FETCH_COST + len(residual) * RESIDUAL_COST
            )
        elif kind == "hash":
            examined = plan.index.bucket_size(plan.key)
            cost = SEEK_COST + self._priced_rows(
                examined, residual, plan.early_exit
            ) * (ROW_FETCH_COST + len(residual) * RESIDUAL_COST)
        elif kind == "in":
            examined = sum(map(plan.index.bucket_size, plan.keys))
            cost = len(plan.keys) * SEEK_COST + examined * (
                INTERSECT_COST + ROW_FETCH_COST + len(residual) * RESIDUAL_COST
            )
        elif kind == "intersect":
            assert plan.indexes is not None and plan.keys is not None
            buckets = [
                index.bucket_size(key)
                for index, key in zip(plan.indexes, plan.keys)
            ]
            live = len(self._table)
            examined = 0.0
            if live:
                examined = float(live)
                for bucket in buckets:
                    examined *= bucket / live
            cost = (
                len(buckets) * SEEK_COST
                + sum(buckets) * INTERSECT_COST
                + examined * (ROW_FETCH_COST + len(residual) * RESIDUAL_COST)
            )
        else:  # seek, covering
            _keys, examined = self._estimate_range(
                plan.index,
                plan.prefix,
                plan.low,
                plan.high,
                include_low=plan.include_low,
                include_high=plan.include_high,
                exclude_null=plan.exclude_null,
            )
            row_cost = COVERING_ROW_COST if kind == "covering" else ROW_FETCH_COST
            cost = SEEK_COST + self._priced_rows(
                examined, residual, plan.early_exit
            ) * (row_cost + len(residual) * RESIDUAL_COST)
        plan.cost = cost
        plan.estimated_rows = self._est(examined, residual)
        plan.candidates = int(round(examined))
        return plan

    def _shape_and_values(self) -> "tuple[tuple, tuple]":
        """The query's *shape* — what it has apart from its values — and
        its values, each beside its type so that ``1``, ``1.0`` and
        ``True`` differ, then the limit.

        Per condition the shape holds the column, the operator and what
        the planner reads of the value: whether it is NULL (``=`` and
        ranges), whether it is a list that hashes (``IN``).  Then the
        order, whether a limit is set, the offset and the projection.
        The shape keys the table's plan memo; both key the result cache.
        """
        keyed = self._keyed
        if keyed is None:
            conds = []
            values: list[Any] = []
            for c in self._conditions:
                op, value = c.op, c.value
                if op == "in":
                    seen: Any = _hashable_list(value)
                elif op == "=" or op in _RANGE_OPS:
                    seen = value is None
                else:
                    seen = None
                conds.append((c.column, op, seen))
                values += (type(value), value)
            values.append(self._limit)
            shape = (
                tuple(conds),
                tuple(self._order),
                self._limit is not None,
                self._offset,
                self._select,
            )
            keyed = self._keyed = (shape, tuple(values))
        return keyed

    def fingerprint(self) -> str:
        """Stable digest of the query as written — it never plans.

        Covers conditions, order, paging, projection and
        ``without_indexes()``; two ``Query`` objects of the same shape
        share it.  :meth:`explain` reports it so operators can correlate
        cache entries with query sites.  It keys the result cache only
        when a value cannot be hashed (:meth:`_cache_key`); otherwise
        the cache is keyed on the shape and the typed values, which
        costs no digest of the query's ``repr``.
        """
        shape = (
            [(c.column, c.op, c.value) for c in self._conditions],
            self._order,
            self._limit,
            self._offset,
            self._use_indexes,
            self._select,
        )
        return hashlib.sha1(repr(shape).encode("utf-8")).hexdigest()[:12]

    def _cache(self) -> "QueryCache | None":
        cache = getattr(self._table._db, "query_cache", None)
        if cache is None or not cache.enabled:
            return None
        return cache

    def _cache_version(self) -> "int | None":
        """The committed table version this query may be cached under,
        or ``None`` when it must bypass the cache.

        ``table.version`` is read exactly once and that captured value
        drives both the cacheability check and the cache key — reading
        it twice would let a commit land in between and publish a
        stale (snapshot-state) result under the new version's key.

        without_indexes() exists for the ablation benchmarks, which
        must measure real scans; a live query on a dirty table must
        never populate or serve the cache (its state is uncommitted).
        A snapshot query reads committed state, so it is cacheable,
        dirty table or not, while the table has not committed past the
        snapshot — historical versions are not keyed.
        """
        if not self._use_indexes:
            return None
        if self._snapshot is None:
            return None if self._table.dirty else self._table.version
        version = self._table.version
        return None if version > self._snapshot.seq else version

    def _cache_key(self, kind: str, version: "int | None" = None) -> tuple:
        """``(table, version, kind, shape, values)``, or ``(table,
        version, kind, fingerprint)`` when a value cannot be hashed."""
        # When a snapshot query is cacheable the live version equals the
        # snapshot-visible version, so both modes share one key space.
        if version is None:
            version = self._table.version
        shape, values = self._shape_and_values()
        try:
            hash(values)
        except TypeError:  # a JSON dict, an IN over a list
            return (self._table.name, version, kind, self.fingerprint())
        return (self._table.name, version, kind, shape, values)

    def explain(self, *, analyze: bool = False) -> dict[str, Any]:
        """Describe the costed access path without executing the query.

        Reports the chosen strategy with its estimated cost and row
        count, the ``alternatives`` the planner priced and rejected,
        whether the plan is ``covering`` (skips the row store) or can
        ``early_exit`` on LIMIT, the snapshot pin (``snapshot_version``,
        ``None`` for live queries), and the result-cache key's table,
        version, kind and the query's fingerprint (``cache_key``,
        ``None`` when the cache is bypassed) so hits and misses are
        debuggable across the version-keyed cache.  The chosen plan's
        figures are those of its twin among the rivals, which are all
        enumerated and priced afresh.  With ``analyze=True`` the query
        is executed and ``actual_rows`` added, making estimation error
        visible.
        """
        plan = self._plan()
        rivals = [] if plan.rivals is None else plan.rivals()
        # A plan that had no rival left in the memo ran unpriced.
        priced = next((p for p in rivals if p.strategy == plan.strategy), plan)
        cache = self._cache()
        version = self._cache_version()
        key = self._cache_key("rows", version)
        if cache is None or version is None:
            cache_status = "bypassed"
        elif cache.peek(key):
            cache_status = "hit"
        else:
            cache_status = "miss"
        if plan.kind == "pks":
            candidates = len(plan.pks or ())
        elif plan.kind == "scan" and self._snapshot is not None:
            candidates = self._table.count_at(self._snapshot.seq)
        else:
            candidates = priced.candidates
        fingerprint = self.fingerprint()
        result = {
            "table": self._table.name,
            "strategy": plan.strategy,
            "candidates": candidates,
            "estimated_rows": priced.estimated_rows,
            "estimated_cost": round(priced.cost, 2),
            "covering": plan.kind == "covering",
            "early_exit": plan.early_exit,
            "residual_predicates": len(plan.residual),
            "order_by": list(self._order),
            "alternatives": [
                {
                    "strategy": p.strategy,
                    "cost": round(p.cost, 2),
                    "estimated_rows": p.estimated_rows,
                }
                for p in sorted(rivals, key=lambda p: p.cost)
                if p is not priced
            ],
            "cache": cache_status,
            "fingerprint": fingerprint,
            "snapshot_version": (
                None if self._snapshot is None else self._snapshot.seq
            ),
            "cache_key": (
                None
                if cache_status == "bypassed"
                else {
                    "table": key[0],
                    "version": key[1],
                    "kind": key[2],
                    "fingerprint": fingerprint,
                }
            ),
        }
        if analyze:
            result["actual_rows"] = len(self.all())
        return result

    # -- execution -----------------------------------------------------------------

    def _execute(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Run one uncached execution under observability.

        Inside an active trace the scan becomes a ``storage.query`` span
        carrying a lazy :meth:`explain` hook — the planner re-runs only
        if the span is promoted to the slow log.  Outside a trace (bulk
        loads, background jobs) the scan is merely timed, and feeds the
        slow log directly when it blows the ``storage.query`` budget, so
        slow untraced queries are still diagnosable.  Cache hits never
        reach this path: serving a stored result is not an execution.
        """
        obs = getattr(self._table._db, "obs", None)
        if obs is None:
            return fn()
        if obs.tracer.current() is not None:
            with obs.tracer.span(
                "storage.query", table=self._table.name, kind=kind
            ) as span:
                span.explain = self.explain
                result = fn()
                span.set(rows=result if kind == "count" else len(result))
            return result
        timer = obs.timer()
        result = fn()
        elapsed = timer.elapsed()
        if elapsed >= obs.slowlog.threshold_for("storage.query"):
            obs.slowlog.record(
                "storage.query",
                elapsed,
                {
                    "table": self._table.name,
                    "kind": kind,
                    "rows": result if kind == "count" else len(result),
                },
                explain=self.explain,
            )
        return result

    def _iter_plan_rows(self, plan: Plan) -> Iterator[dict[str, Any]]:
        """Iterate internal row references for *plan* (zero-copy where
        possible; covering plans yield freshly synthesized dicts)."""
        tbl = self._table
        # A plan may touch no row (an empty bucket at a snapshot, a
        # covering read): the read view must learn the table all the same.
        note_table_read(tbl.name)
        residual = plan.residual
        if not residual:
            keep = None
        elif len(residual) == 1:
            keep = residual[0].matches
        else:
            keep = lambda row: all(cond.matches(row) for cond in residual)
        snap = self._snapshot
        if snap is not None:
            if snap.closed:
                raise SchemaError(
                    f"query on {tbl.name!r}: snapshot is closed"
                )
            seq = snap.seq
            if plan.kind == "scan":
                # Chain-walking scan at the pinned sequence number; the
                # pk set is materialized atomically so concurrent
                # commits can neither tear it nor change its size.
                rows: Iterator[Any] = (row for _pk, row in tbl.items_at(seq))
            else:
                # Index candidates were pinned against the snapshot by
                # the planner (kind "pks"); rows are still resolved
                # through the chains so a commit racing this loop
                # cannot leak newer versions into the result.  Pk
                # order, as the live index plans yield them.
                rows = (tbl.row_at(pk, seq) for pk in _pk_order(plan.pks or ()))
            # Drop the pks that resolved to no row; a payload always
            # holds at least its pk, so it is never falsy.
            rows = filter(None, rows)
        elif plan.kind in ("seek", "covering"):
            entries = plan.index.seek(
                plan.prefix,
                plan.low,
                plan.high,
                include_low=plan.include_low,
                include_high=plan.include_high,
                descending=plan.descending,
                exclude_null=plan.exclude_null,
            )
            if plan.kind == "covering":
                return self._covering_rows(plan.index.columns, entries, keep)
            rows = tbl.raw_rows(
                chain.from_iterable(_pk_order(b) for _raw, b in entries)
            )
        else:
            if plan.kind == "scan":
                pks: Any = tbl.pks()
            elif plan.kind == "hash":
                pks = _pk_order(plan.index.members(plan.key))
            elif plan.kind == "in":
                pks = _pk_order(_union(plan.index, plan.keys))
            elif plan.kind == "intersect":
                assert plan.indexes is not None and plan.keys is not None
                sets = sorted(
                    (
                        index.lookup(key)
                        for index, key in zip(plan.indexes, plan.keys)
                    ),
                    key=len,
                )
                pks = _pk_order(sets[0].intersection(*sets[1:]))
            else:  # "pks"
                pks = _pk_order(plan.pks or ())
            rows = tbl.raw_rows(pks)
        return rows if keep is None else filter(keep, rows)

    def _covering_rows(
        self, cols: "tuple[str, ...]", entries: Iterator[Any], keep: Any
    ) -> Iterator[dict[str, Any]]:
        """Skip-fetch: rows come straight from the index entries (the
        pk rides along), the row store is never consulted.  The
        residual check runs once per distinct key — every residual
        column is part of the key."""
        pk_col = self._table.pk_column
        for raw, bucket in entries:
            base = dict(zip(cols, raw))
            if keep is None or keep(base):
                for pk in _pk_order(bucket):
                    yield {**base, pk_col: pk}

    def _matching_rows(self) -> Iterator[dict[str, Any]]:
        return self._iter_plan_rows(self._plan())

    def _order_satisfied(self, plan: Plan) -> bool:
        """Whether *plan*'s natural output order covers ``order_by``."""
        if not self._order:
            return True
        if len(plan.ordered) < len(self._order):
            return False
        return tuple(self._order) == plan.ordered[: len(self._order)]

    def _limited_rows(self) -> list[dict[str, Any]]:
        """Matching rows after sort/offset/limit — internal references.

        When the plan already yields rows in the requested order (an
        ordered-index seek whose free columns match ``order_by``, or no
        ordering at all), the sort is skipped and LIMIT exits early:
        only ``offset + limit`` rows are ever pulled from the iterator.
        """
        plan = self._plan()
        rows_iter = self._iter_plan_rows(plan)
        if self._order and not self._order_satisfied(plan):
            rows = list(rows_iter)
            schema = self._table.schema
            # Stable multi-key sort: apply keys in reverse priority order.
            for column, descending in reversed(self._order):
                native = schema.column(column).type in PLAIN_TYPES
                rows = _sort_rows(rows, column, descending, native)
            if self._offset:
                rows = rows[self._offset:]
            if self._limit is not None:
                rows = rows[: self._limit]
            return rows
        stop = None if self._limit is None else self._offset + self._limit
        return list(islice(rows_iter, self._offset, stop))

    def _result_rows(self) -> "tuple[dict[str, Any], ...]":
        """The result as *shared* rows: the immutable version payloads
        themselves, or — under a projection — trimmed dicts private to
        this result (pk always included).  This is what the cache
        stores; callers are handed copies."""
        rows = self._limited_rows()
        if self._select is None:
            return tuple(rows)
        columns = self._select
        if self._table.pk_column not in columns:
            columns += (self._table.pk_column,)
        return tuple({c: row.get(c) for c in columns} for row in rows)

    def _through_cache(self, kind: str, compute: Callable[[], Any]) -> Any:
        """Serve *compute* from the result cache, running (and
        planning) it only on a miss or a bypass."""
        cache = self._cache()
        version = self._cache_version() if cache is not None else None
        if version is None:
            if cache is not None:
                cache.record("bypass")
            return self._execute(kind, compute)
        key = self._cache_key(kind, version)
        cached = cache.get(key)
        if cached is not None:
            cache.record("hit")
            # A hit touches no table method; the read view (portal
            # ETags) must still learn that this table was read.
            note_table_read(self._table.name)
            return cached
        cache.record("miss")
        # A mutation landing while a live query scans may tear its
        # result; a snapshot query's is the state at the key's version.
        table = self._table
        epoch = table.mutation_epoch
        result = self._execute(kind, compute)
        if table.version == version and (
            self._snapshot is not None
            or (table.mutation_epoch == epoch and not table.dirty)
        ):
            cache.put(key, result)
        return result

    @property
    def columns(self) -> list[str]:
        """The table's column names: every key a result row can carry
        (a row pinned before ``add_column`` carries fewer)."""
        return self._table.schema.column_names

    def shared_rows(self) -> "tuple[dict[str, Any], ...]":
        """Execute and return the result rows *without* copying them:
        the immutable version payloads the result cache also holds (or,
        under :meth:`select`, dicts private to the cached result).
        Strictly read-only — for callers that copy every row anyway, as
        the ORM does when it hydrates models."""
        return self._through_cache("rows", self._result_rows)

    def all(self) -> list[dict[str, Any]]:
        """Execute and return row copies (shallow: one ``dict`` per
        row, whether the rows were cached or just read)."""
        return list(map(dict, self.shared_rows()))

    def first(self) -> dict[str, Any] | None:
        """Return the first matching row or ``None``."""
        # On a copy: the caller's query keeps its own limit.
        rows = copy.copy(self).limit(1).all() if self._limit is None else self.all()
        return rows[0] if rows else None

    def one(self) -> dict[str, Any]:
        """Return exactly one row; raise if zero or several match."""
        rows = copy.copy(self).limit(2).all()
        if not rows:
            raise SchemaError(
                f"query on {self._table.name!r} matched no rows"
            )
        if len(rows) > 1:
            raise SchemaError(
                f"query on {self._table.name!r} matched more than one row"
            )
        return rows[0]

    def count(self) -> int:
        """Number of matching rows (ignores limit/offset)."""
        return self._through_cache(
            "count", lambda: sum(1 for _ in self._matching_rows())
        )

    def exists(self) -> bool:
        return next(iter(self._matching_rows()), None) is not None

    def pks(self) -> list[Any]:
        """Primary keys of matching rows, respecting order/limit/offset."""
        pk_col = self._table.pk_column
        # Read straight off the internal rows: copying whole dicts to
        # extract one column was pure overhead.
        return [row[pk_col] for row in self._limited_rows()]

    def values(self, column: str) -> list[Any]:
        """The given column of every matching row."""
        if not self._table.schema.has_column(column):
            raise SchemaError(
                f"table {self._table.name!r} has no column {column!r}"
            )
        return [row.get(column) for row in self._limited_rows()]

    def distinct_values(self, column: str) -> list[Any]:
        """Distinct non-null values of *column*, sorted.

        Backs drop-down filters ("all species in use").
        """
        if not self._table.schema.has_column(column):
            raise SchemaError(
                f"table {self._table.name!r} has no column {column!r}"
            )
        seen: dict = {}
        for row in self._matching_rows():
            value = row.get(column)
            if value is not None:
                seen[repr(value)] = value
        return sorted(seen.values(), key=sort_key)

    # -- aggregation ----------------------------------------------------------------

    def aggregate(self, column: str, function: str) -> Any:
        """Aggregate *column* over matching rows.

        ``function`` is one of ``count``, ``sum``, ``min``, ``max``,
        ``avg``.  NULLs are ignored (SQL semantics); ``count`` counts
        non-null values, ``avg``/``min``/``max`` of no values is
        ``None``, ``sum`` of no values is 0.
        """
        if not self._table.schema.has_column(column):
            raise SchemaError(
                f"table {self._table.name!r} has no column {column!r}"
            )
        if function not in ("count", "sum", "min", "max", "avg"):
            raise SchemaError(f"unknown aggregate {function!r}")
        values = [
            row[column]
            for row in self._matching_rows()
            if row.get(column) is not None
        ]
        if function == "count":
            return len(values)
        if function == "sum":
            return sum(values) if values else 0
        if not values:
            return None
        if function == "min":
            return min(values, key=sort_key)
        if function == "max":
            return max(values, key=sort_key)
        return sum(values) / len(values)

    def group_by(
        self, column: str, *, aggregate: str = "count", value_column: str | None = None
    ) -> dict[Any, Any]:
        """Group matching rows by *column* and aggregate per group.

        The default counts rows per group; with *value_column* the
        aggregate runs over that column's non-null values.  Powers the
        admin dashboards ("workunits per project", "bytes per storage
        mode").
        """
        if not self._table.schema.has_column(column):
            raise SchemaError(
                f"table {self._table.name!r} has no column {column!r}"
            )
        if value_column is not None and not self._table.schema.has_column(
            value_column
        ):
            raise SchemaError(
                f"table {self._table.name!r} has no column {value_column!r}"
            )
        if aggregate not in ("count", "sum", "min", "max", "avg"):
            raise SchemaError(f"unknown aggregate {aggregate!r}")
        groups: dict[Any, list[Any]] = {}
        for row in self._matching_rows():
            key = row.get(column)
            if value_column is None:
                groups.setdefault(key, []).append(1)
            elif row.get(value_column) is not None:
                groups.setdefault(key, []).append(row[value_column])
            else:
                groups.setdefault(key, [])
        result: dict[Any, Any] = {}
        for key, values in groups.items():
            if aggregate == "count":
                result[key] = len(values) if value_column is None else len(values)
            elif aggregate == "sum":
                result[key] = sum(values) if values else 0
            elif aggregate == "min":
                result[key] = min(values, key=sort_key) if values else None
            elif aggregate == "max":
                result[key] = max(values, key=sort_key) if values else None
            else:
                result[key] = sum(values) / len(values) if values else None
        return result
