"""Secondary indexes.

Two flavours, one structure per declared index:

* :class:`HashIndex` — equality lookups; used for composite secondary
  indexes and for unique constraints.
* :class:`OrderedIndex` — equality, prefix, and range lookups over one
  or more columns, kept as a sorted list of keys (binary search via
  :mod:`bisect`).  It is the only index on a single-column plain spec.
  A plain-typed column (INT, FLOAT, TEXT, BOOL) is keyed by its own
  values, so equality there is one dict probe on the bare value and a
  range seek bisects a list of ``str`` or ``int`` in C.

Indexes map a key to the **bucket** of primary keys of rows carrying
that key: a 1-tuple while the key holds one pk, a ``set`` from the
second pk on (a one-row bucket costs 48 bytes instead of 216, and is
not tracked by the garbage collector).  They are maintained
synchronously by the table on every insert/update/delete so reads
never rebuild anything.

Planner support: both flavours maintain an O(1) entry counter
(``len(index)`` is a hot path for metrics and cost estimation) and
expose cheap cardinality probes — ``bucket_size`` is an O(1) dict hit,
:meth:`OrderedIndex.estimate_range` is two binary searches — so the
cost-based planner can price candidate plans without executing them.
Range reads are **iterator-based**: :meth:`OrderedIndex.seek` walks
the sorted keys lazily instead of materializing a pk set, which is
what makes LIMIT-aware early exit worth planning.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator

from repro.errors import UniqueViolation
from repro.storage.types import PLAIN_TYPES, ColumnType, sort_key, sort_rank


def _with(bucket: "tuple | set | None", pk: Any) -> "tuple | set | None":
    """The bucket to file under a key once *pk* joins *bucket*, or
    ``None`` when *pk* is already there.  A new key gets a 1-tuple; a
    second pk replaces it with a new set, which later pks grow in place."""
    if bucket is None:
        return (pk,)
    if pk in bucket:
        return None
    if type(bucket) is tuple:
        return {bucket[0], pk}
    bucket.add(pk)
    return bucket


def _without(bucket: "tuple | set", pk: Any) -> "tuple | set | None":
    """The bucket left once *pk* (a member) leaves *bucket*: ``None``
    when it empties, a new 1-tuple when one pk is left.  Only sets of
    three or more shrink in place, so a reader holding a bucket across
    a promotion or demotion keeps a consistent old object."""
    if len(bucket) == 1:
        return None
    if len(bucket) == 2:
        first, second = bucket
        return (second,) if first == pk else (first,)
    bucket.discard(pk)
    return bucket


class _Index:
    """Read surface shared by both flavours, over ``members``."""

    def lookup(self, key: tuple) -> set[Any]:
        """Return the pks of rows whose indexed columns equal *key*."""
        return set(self.members(key))

    def bucket_size(self, key: tuple) -> int:
        """Exact row count under *key*, uncopied (O(1)): the planner's
        price of an equality probe."""
        return len(self.members(key))

    def structure_problems(self) -> list[str]:
        """Faults of the index itself (integrity checks): a bucket not
        in its compact shape, or an entry count out of step with them."""
        problems = []
        filed = 0
        for _key, bucket in self.entries():
            filed += len(bucket)
            # One pk is a 1-tuple, two or more a set; none is no key.
            if not bucket or type(bucket) is not (tuple if len(bucket) == 1 else set):
                problems.append(f"malformed bucket {bucket!r}")
        if filed != self._entries:
            problems.append(f"counts {self._entries} entries, holds {filed}")
        return problems

    def __len__(self) -> int:
        return self._entries


class HashIndex(_Index):
    """Equality index over one or more columns.

    Keys are tuples of the indexed column values.  With ``unique=True``
    the index additionally enforces at most one row per fully-non-null
    key (SQL semantics: NULLs never collide).
    """

    def __init__(self, table: str, columns: tuple[str, ...], *, unique: bool = False):
        self.table = table
        self.columns = columns
        self.unique = unique
        self._buckets: dict[tuple, "tuple | set[Any]"] = {}
        #: Total pk entries across buckets; kept current on add/remove
        #: so ``len(index)`` is O(1) (it feeds metrics and plan costs).
        self._entries = 0

    @property
    def name(self) -> str:
        prefix = "uq" if self.unique else "ix"
        return f"{prefix}_{self.table}_{'_'.join(self.columns)}"

    def key_for(self, row: dict[str, Any]) -> tuple:
        return tuple(row[c] for c in self.columns)

    def _enforceable(self, key: tuple) -> bool:
        """Unique constraints ignore keys containing NULL."""
        return self.unique and all(part is not None for part in key)

    def check_insert(self, row: dict[str, Any], pk: Any) -> None:
        """Raise :class:`UniqueViolation` if inserting *row* would collide."""
        key = self.key_for(row)
        if self._enforceable(key):
            existing = self._buckets.get(key)
            if existing and any(other != pk for other in existing):
                raise UniqueViolation(
                    f"duplicate value {key!r} for unique index "
                    f"{self.name!r}",
                    table=self.table,
                    constraint=self.name,
                )

    def add(self, row: dict[str, Any], pk: Any) -> None:
        key = self.key_for(row)
        bucket = _with(self._buckets.get(key), pk)
        if bucket is not None:
            self._buckets[key] = bucket
            self._entries += 1

    def add_many(self, entries: "Iterable[tuple[dict[str, Any], Any]]") -> None:
        """:meth:`add` every ``(row, pk)`` pair (bulk load; no checks)."""
        buckets = self._buckets
        added = 0
        for row, pk in entries:
            key = self.key_for(row)
            bucket = _with(buckets.get(key), pk)
            if bucket is not None:
                buckets[key] = bucket
                added += 1
        self._entries += added

    def remove(self, row: dict[str, Any], pk: Any) -> None:
        key = self.key_for(row)
        bucket = self._buckets.get(key)
        if bucket is None or pk not in bucket:
            return
        self._entries -= 1
        rest = _without(bucket, pk)
        if rest is None:
            del self._buckets[key]
        elif rest is not bucket:
            self._buckets[key] = rest

    def members(self, key: tuple) -> "tuple | set[Any]":
        """The live bucket under *key*, uncopied.  Read-only: a caller
        that holds it across a write copies it first (one ``sorted``
        or ``set`` call does)."""
        return self._buckets.get(key, ())

    def distinct_keys(self) -> int:
        """Number of distinct key tuples currently indexed (O(1))."""
        return len(self._buckets)

    def entries(self) -> "Iterable[tuple[tuple, tuple | set[Any]]]":
        """``(key, bucket)`` per distinct key, unordered (integrity checks)."""
        return self._buckets.items()

    def clear(self) -> None:
        self._buckets.clear()
        self._entries = 0


class _Edge:
    """A key component outside every column value: ``NULL`` sorts below
    all of them, ``_FLOOR`` just above ``NULL``, ``_TOP`` above
    everything.  Equal only to itself, and hashed by identity."""

    __slots__ = ("rank", "label")

    def __init__(self, rank: int, label: str):
        self.rank = rank
        self.label = label

    def __lt__(self, other: Any) -> bool:
        if type(other) is _Edge:
            return self.rank < other.rank
        return self.rank < 2

    def __gt__(self, other: Any) -> bool:
        if type(other) is _Edge:
            return self.rank > other.rank
        return self.rank == 2

    def __repr__(self) -> str:
        return self.label


#: How an ordered index stores a NULL column value: below every value,
#: so ``NULLS FIRST`` order and ``exclude_null`` seeks need no wrapper.
NULL = _Edge(0, "NULL")
#: A probe between NULL and every value (a bound of a lower type family).
_FLOOR = _Edge(1, "FLOOR")
#: A probe above every key; appended to a prefix it bounds that
#: prefix's key range from above.
_TOP = _Edge(2, "TOP")


class _Keyed:
    """A key component of a column that is not plain-typed (DATETIME,
    JSON, or an index built without column types): it orders and hashes
    by :func:`sort_key` and carries the raw value, which a covering read
    hands out (two equal aware datetimes can differ in zone)."""

    __slots__ = ("key", "raw")

    def __init__(self, raw: Any):
        self.key = sort_key(raw)
        self.raw = raw

    def __eq__(self, other: Any) -> bool:
        return type(other) is _Keyed and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: Any) -> bool:
        if type(other) is _Keyed:
            return self.key < other.key
        return NotImplemented

    def __gt__(self, other: Any) -> bool:
        if type(other) is _Keyed:
            return self.key > other.key
        return NotImplemented

    def __repr__(self) -> str:
        return f"_Keyed({self.raw!r})"


def _keyed(value: Any) -> Any:
    """Normaliser of a column that is not plain-typed."""
    return NULL if value is None else _Keyed(value)


def _plain(kind: type):
    """Normaliser of a plain column whose values are of type *kind*: a
    value of the column's type family is its own key; one of another
    family sorts below or above all of them, as :func:`sort_key` ranks
    it, and equals none."""
    rank = sort_rank(kind())

    def normalise(value: Any) -> Any:
        if type(value) is kind:
            return value
        if value is None:
            return NULL
        other = sort_rank(value)
        if other == rank:
            return value
        return _FLOOR if other < rank else _TOP

    return normalise


def _raw_part(part: Any) -> Any:
    """The column value a stored key component stands for."""
    if part is NULL:
        return None
    return part.raw if type(part) is _Keyed else part


class OrderedIndex(_Index):
    """Ordered (range-capable) index over one or more columns.

    Maintains a sorted list of distinct keys alongside a dict from key
    to bucket.  Each column's value is normalised into a key component
    by a function chosen at construction from the column's type:

    * a plain column (INT, FLOAT, TEXT, BOOL —
      :data:`~repro.storage.types.PLAIN_TYPES`) is keyed by its coerced
      value itself.  Its values share one type, compare in
      :func:`sort_key` order, and equal ones share a hash, so a probe
      or a bisect runs on them in C;
    * any other column by a :class:`_Keyed`, which orders by
      :func:`sort_key` and keeps the raw value.

    NULL is the :data:`NULL` sentinel, which sorts below every value
    (``NULLS FIRST``).  A single-column key is its bare component, a
    composite key the tuple of its components; tuples compare
    lexicographically, which is what makes **prefix seeks** work: every
    key extending prefix ``p`` sorts inside ``[p, p + (_TOP,))``.

    A probe value of another type family than its plain column
    (a ``str`` bound on an INT column) becomes ``_FLOOR`` or ``_TOP``,
    so a seek bounded by it matches every non-null key or none, as
    :func:`sort_key` orders them, and never raises ``TypeError``.

    The index is *covering* for any column subset of :attr:`columns`:
    keys keep the column values, so a plan whose selected and residual
    columns all live here can be answered without touching the row
    store (see :meth:`covers` / :meth:`seek`).
    """

    def __init__(
        self,
        table: str,
        columns: "tuple[str, ...] | str",
        types: "tuple[ColumnType, ...] | None" = None,
    ):
        if isinstance(columns, str):
            columns = (columns,)
        self.table = table
        self.columns = tuple(columns)
        if types is None:
            types = (None,) * len(self.columns)
        #: Per column: the type of its non-null key components.
        self._kinds = tuple(PLAIN_TYPES.get(t, _Keyed) for t in types)
        self._norms = tuple(
            _plain(PLAIN_TYPES[t]) if t in PLAIN_TYPES else _keyed
            for t in types
        )
        self._single = len(self.columns) == 1
        self._sorted_keys: list[Any] = []
        #: key -> bucket
        self._by_key: dict[Any, "tuple | set[Any]"] = {}
        #: Total pk entries; O(1) ``len`` for metrics and plan costing.
        self._entries = 0

    @property
    def name(self) -> str:
        # Single-column ordered indexes keep the historical sx_ prefix
        # (explain() strategies like "range:sx_t_c" are asserted by the
        # ablation benchmarks); composites get their own ox_ family.
        if len(self.columns) == 1:
            return f"sx_{self.table}_{self.columns[0]}"
        return f"ox_{self.table}_{'_'.join(self.columns)}"

    def key_for(self, row: dict[str, Any]) -> tuple:
        return tuple(row[c] for c in self.columns)

    def _parts(self, values: tuple) -> tuple:
        """The normalised components of leading column *values*."""
        return tuple(norm(value) for norm, value in zip(self._norms, values))

    def _key(self, raw: tuple) -> Any:
        """The key that the full raw key tuple *raw* is stored under."""
        if self._single:
            return self._norms[0](raw[0])
        return self._parts(raw)

    def _row_key(self, row: dict[str, Any]) -> Any:
        if self._single:
            return self._norms[0](row[self.columns[0]])
        return self._parts(self.key_for(row))

    def raw_key(self, key: Any) -> tuple:
        """The raw column-value tuple the stored *key* stands for."""
        if self._single:
            return (_raw_part(key),)
        return tuple(map(_raw_part, key))

    def covers(self, columns: Iterable[str]) -> bool:
        """Whether every column in *columns* is stored in this index."""
        own = set(self.columns)
        return all(c in own for c in columns)

    # -- maintenance -------------------------------------------------------

    def add(self, row: dict[str, Any], pk: Any) -> None:
        key = self._row_key(row)
        old = self._by_key.get(key)
        if old is None:
            bisect.insort(self._sorted_keys, key)
        bucket = _with(old, pk)
        if bucket is not None:
            self._by_key[key] = bucket
            self._entries += 1

    def add_many(self, entries: "Iterable[tuple[dict[str, Any], Any]]") -> None:
        """:meth:`add` every ``(row, pk)`` pair, then sort the keys once.

        One ``sorted()`` over the distinct keys instead of one
        ``insort`` per new key: O(n log n) rather than O(n²) moves.
        """
        by_key = self._by_key
        row_key = self._row_key
        added = 0
        for row, pk in entries:
            key = row_key(row)
            bucket = _with(by_key.get(key), pk)
            if bucket is not None:
                by_key[key] = bucket
                added += 1
        self._entries += added
        self._sorted_keys = sorted(by_key)

    def remove(self, row: dict[str, Any], pk: Any) -> None:
        key = self._row_key(row)
        bucket = self._by_key.get(key)
        if bucket is None or pk not in bucket:
            return
        self._entries -= 1
        rest = _without(bucket, pk)
        if rest is None:
            del self._by_key[key]
            # It was in _by_key, so it sits at exactly bisect_left.
            del self._sorted_keys[bisect.bisect_left(self._sorted_keys, key)]
        elif rest is not bucket:
            self._by_key[key] = rest

    def clear(self) -> None:
        self._sorted_keys.clear()
        self._by_key.clear()
        self._entries = 0

    # -- point lookups -----------------------------------------------------

    def members(self, key: tuple) -> "tuple | set[Any]":
        """The live bucket under the full *key*, uncopied and read-only:
        one dict probe.  Equal values (``1``, ``1.0``, ``True``) share a
        hash and compare equal, so a bucket."""
        return self._by_key.get(self._key(key), ())

    def distinct_keys(self) -> int:
        """Number of distinct composite keys currently indexed (O(1))."""
        return len(self._by_key)

    def entries(self) -> "Iterable[tuple[tuple, tuple | set[Any]]]":
        """``(raw_key, bucket)`` per distinct key, unordered (integrity checks)."""
        raw = self.raw_key
        return ((raw(key), bucket) for key, bucket in self._by_key.items())

    def structure_problems(self) -> list[str]:
        """Also: every key has its columns' layout — a plain column's own
        value type or NULL, never a wrapper — a single-column index
        files NULL at the head, and the sorted key list holds exactly
        the bucket keys, in order."""
        problems = super().structure_problems()
        problems += filter(None, map(self._key_problem, self._by_key))
        keys = self._sorted_keys
        if self._single and any(key is NULL for key in keys[1:]):
            problems.append("NULL key not at the head")
        try:
            in_order = all(a < b for a, b in zip(keys, keys[1:]))
        except TypeError:  # a wrong-typed key
            in_order = False
        if (
            not in_order
            or len(keys) != len(self._by_key)
            or any(key not in self._by_key for key in keys)
        ):
            problems.append("sorted keys out of step")
        return problems

    def _key_problem(self, key: Any) -> "str | None":
        parts = (key,) if self._single else key
        if type(parts) is not tuple or len(parts) != len(self.columns):
            return f"malformed key {key!r}"
        for part, kind in zip(parts, self._kinds):
            if part is NULL or type(part) is kind:
                continue
            if kind is not _Keyed and type(part) in (tuple, _Keyed):
                return f"wrapped key {key!r}"
            return f"key {key!r} is not {kind.__name__}"
        return None

    def min_key(self) -> "tuple | None":
        """Smallest raw key tuple, or ``None`` when empty (O(1))."""
        keys = self._sorted_keys
        return self.raw_key(keys[0]) if keys else None

    def max_key(self) -> "tuple | None":
        """Largest raw key tuple, or ``None`` when empty (O(1))."""
        keys = self._sorted_keys
        return self.raw_key(keys[-1]) if keys else None

    # -- range machinery ---------------------------------------------------

    def _edge(self, parts: tuple, after: bool) -> int:
        """Position of the first key extending the normalised leading
        components *parts*, or with *after* of the first key past them."""
        keys = self._sorted_keys
        if not parts:
            return len(keys) if after else 0
        if self._single:
            edge = bisect.bisect_right if after else bisect.bisect_left
            return edge(keys, parts[0])
        return bisect.bisect_left(keys, parts + (_TOP,) if after else parts)

    def _bounds(
        self,
        prefix: tuple,
        low: Any,
        high: Any,
        include_low: bool,
        include_high: bool,
        exclude_null: bool = False,
    ) -> tuple[int, int]:
        """Positions ``[lo, hi)`` in the sorted key list for a seek with
        equality on *prefix* and an optional range on the next column.

        ``exclude_null`` skips keys whose range column is NULL — range
        predicates never match NULL (SQL three-valued logic), so a seek
        with only an upper bound must not start at the NULL keys that
        sort below everything.
        """
        parts = self._parts(prefix)
        if low is not None:
            bound = self._norms[len(parts)](low)
            lo_pos = self._edge(parts + (bound,), not include_low)
        elif exclude_null and len(parts) < len(self.columns):
            lo_pos = self._edge(parts + (NULL,), True)
        else:
            lo_pos = self._edge(parts, False)
        if high is None:
            hi_pos = self._edge(parts, True)
        else:
            bound = self._norms[len(parts)](high)
            hi_pos = self._edge(parts + (bound,), include_high)
        return lo_pos, hi_pos

    def estimate_range(
        self,
        prefix: tuple = (),
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        exclude_null: bool = False,
    ) -> tuple[int, float]:
        """``(distinct_keys, estimated_rows)`` for a seek, in O(log n).

        Equality on the whole key is exact and one dict hit
        (:meth:`bucket_size`).  Otherwise the row estimate is
        matching keys × average bucket size: exact when every key holds
        one pk (unique-ish columns), a guess on skewed columns.  This is
        the planner's costing probe — nothing is materialized.
        """
        if len(prefix) == len(self.columns) and low is None and high is None:
            rows = self.bucket_size(prefix)
            return (1 if rows else 0), float(rows)
        lo_pos, hi_pos = self._bounds(
            prefix, low, high, include_low, include_high, exclude_null
        )
        keys = max(0, hi_pos - lo_pos)
        if not self._by_key:
            return 0, 0.0
        avg_bucket = self._entries / len(self._by_key)
        return keys, keys * avg_bucket

    def seek(
        self,
        prefix: tuple = (),
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        descending: bool = False,
        exclude_null: bool = False,
    ) -> "Iterator[tuple[Any, tuple | set[Any]]]":
        """Lazily yield ``(key, bucket)`` entries in key order; *key* is
        the stored key, which :meth:`raw_key` turns into column values.

        Equality on *prefix* (possibly empty), optional range bounds on
        the column right after the prefix.  Non-materializing: the
        caller can stop after LIMIT rows and the remaining key range is
        never touched.  The yielded bucket is the live one — callers
        must not mutate it and should copy if they hold it across a
        write.
        """
        lo_pos, hi_pos = self._bounds(
            prefix, low, high, include_low, include_high, exclude_null
        )
        positions: Iterable[int] = (
            range(hi_pos - 1, lo_pos - 1, -1) if descending else range(lo_pos, hi_pos)
        )
        keys = self._sorted_keys
        by_key = self._by_key
        for pos in positions:
            # Lock-free readers can race a writer shrinking the key
            # list; results are best-effort latest-state (exactly like
            # the old materializing range()) and the query layer's
            # epoch checks keep torn results out of the cache.
            try:
                key = keys[pos]
            except IndexError:
                break
            bucket = by_key.get(key)
            if bucket is not None:
                yield key, bucket

    def range_pks(
        self,
        prefix: tuple = (),
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        descending: bool = False,
        exclude_null: bool = False,
    ) -> Iterator[Any]:
        """Lazily yield pks for a seek (ties in arbitrary order)."""
        for _key, pks in self.seek(
            prefix,
            low,
            high,
            include_low=include_low,
            include_high=include_high,
            descending=descending,
            exclude_null=exclude_null,
        ):
            yield from pks
