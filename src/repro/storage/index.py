"""Secondary indexes.

Two flavours, one structure per declared index:

* :class:`HashIndex` — equality lookups; used for composite secondary
  indexes and for unique constraints.
* :class:`OrderedIndex` — equality, prefix, and range lookups over one
  or more columns, kept as a sorted list of composite keys (binary
  search via :mod:`bisect`).  It is the only index on a single-column
  plain spec: equality is one dict probe on the wrapped key.

Indexes map a key (tuple of column values) to the **bucket** of primary
keys of rows carrying that key: a 1-tuple while the key holds one pk, a
``set`` from the second pk on (a one-row bucket costs 48 bytes instead
of 216, and is not tracked by the garbage collector).  They are
maintained synchronously by the table on every insert/update/delete so
reads never rebuild anything.

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
from repro.storage.types import sort_key

#: Compares greater than every :func:`sort_key` result (type tags are
#: 0..5); appended to a wrapped prefix it forms the exclusive upper
#: bound of that prefix's key range.
_KEY_INFINITY = (6,)


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


class OrderedIndex(_Index):
    """Ordered (range-capable) index over one or more columns.

    Maintains a sorted list of distinct composite keys alongside a hash
    map to pk-sets.  Each component is wrapped with
    :func:`repro.storage.types.sort_key` so mixed/None values stay
    ordered; composite keys compare lexicographically, which is what
    makes **prefix seeks** work: every key extending prefix ``p`` sorts
    inside ``[p, p + infinity)``.

    The index is *covering* for any column subset of :attr:`columns`:
    entries retain the raw column values, so a plan whose selected and
    residual columns all live here can be answered without touching the
    row store (see :meth:`covers` / :meth:`seek`).
    """

    def __init__(self, table: str, columns: "tuple[str, ...] | str"):
        if isinstance(columns, str):
            columns = (columns,)
        self.table = table
        self.columns = tuple(columns)
        self._sorted_keys: list[tuple] = []   # sort_key-wrapped composites
        #: wrapped key -> (raw value tuple, bucket)
        self._by_key: dict[tuple, "tuple[tuple, tuple | set[Any]]"] = {}
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

    @staticmethod
    def _wrap(raw: tuple) -> tuple:
        return tuple(sort_key(part) for part in raw)

    def covers(self, columns: Iterable[str]) -> bool:
        """Whether every column in *columns* is stored in this index."""
        own = set(self.columns)
        return all(c in own for c in columns)

    # -- maintenance -------------------------------------------------------

    def add(self, row: dict[str, Any], pk: Any) -> None:
        raw = self.key_for(row)
        wrapped = self._wrap(raw)
        entry = self._by_key.get(wrapped)
        if entry is None:
            bisect.insort(self._sorted_keys, wrapped)
            self._by_key[wrapped] = (raw, (pk,))
            self._entries += 1
            return
        bucket = _with(entry[1], pk)
        if bucket is not None:
            if bucket is not entry[1]:
                self._by_key[wrapped] = (entry[0], bucket)
            self._entries += 1

    def add_many(self, entries: "Iterable[tuple[dict[str, Any], Any]]") -> None:
        """:meth:`add` every ``(row, pk)`` pair, then sort the keys once.

        One ``sorted()`` over the distinct keys instead of one
        ``insort`` per new key: O(n log n) rather than O(n²) moves.
        """
        by_key = self._by_key
        added = 0
        for row, pk in entries:
            raw = self.key_for(row)
            wrapped = self._wrap(raw)
            entry = by_key.get(wrapped)
            if entry is None:
                by_key[wrapped] = (raw, (pk,))
            else:
                bucket = _with(entry[1], pk)
                if bucket is None:
                    continue
                if bucket is not entry[1]:
                    by_key[wrapped] = (entry[0], bucket)
            added += 1
        self._entries += added
        self._sorted_keys = sorted(by_key)

    def remove(self, row: dict[str, Any], pk: Any) -> None:
        wrapped = self._wrap(self.key_for(row))
        entry = self._by_key.get(wrapped)
        if entry is None or pk not in entry[1]:
            return
        self._entries -= 1
        rest = _without(entry[1], pk)
        if rest is not None:
            if rest is not entry[1]:
                self._by_key[wrapped] = (entry[0], rest)
        else:
            del self._by_key[wrapped]
            # It was in _by_key, so it sits at exactly bisect_left.
            del self._sorted_keys[bisect.bisect_left(self._sorted_keys, wrapped)]

    def clear(self) -> None:
        self._sorted_keys.clear()
        self._by_key.clear()
        self._entries = 0

    # -- point lookups -----------------------------------------------------

    def members(self, key: tuple) -> "tuple | set[Any]":
        """The live bucket under the full *key*, uncopied and read-only:
        one dict probe.  Equal values (``1``, ``1.0``, ``True``) share a
        :func:`sort_key`, so a bucket."""
        entry = self._by_key.get(self._wrap(key))
        return () if entry is None else entry[1]

    def distinct_keys(self) -> int:
        """Number of distinct composite keys currently indexed (O(1))."""
        return len(self._by_key)

    def entries(self) -> "Iterable[tuple[tuple, tuple | set[Any]]]":
        """``(raw_key, bucket)`` per distinct key, unordered (integrity checks)."""
        return self._by_key.values()

    def structure_problems(self) -> list[str]:
        """Also: the sorted key list holds exactly the bucket keys, in order."""
        problems = super().structure_problems()
        if self._sorted_keys != sorted(self._by_key):
            problems.append("sorted keys out of step")
        return problems

    def min_key(self) -> "tuple | None":
        """Smallest raw key tuple, or ``None`` when empty (O(1))."""
        if not self._sorted_keys:
            return None
        return self._by_key[self._sorted_keys[0]][0]

    def max_key(self) -> "tuple | None":
        """Largest raw key tuple, or ``None`` when empty (O(1))."""
        if not self._sorted_keys:
            return None
        return self._by_key[self._sorted_keys[-1]][0]

    # -- range machinery ---------------------------------------------------

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
        wrapped_prefix = self._wrap(prefix)
        if low is None:
            if exclude_null and len(prefix) < len(self.columns):
                lo_pos = bisect.bisect_left(
                    self._sorted_keys,
                    wrapped_prefix + (sort_key(None), _KEY_INFINITY),
                )
            else:
                lo_pos = bisect.bisect_left(self._sorted_keys, wrapped_prefix)
        else:
            bound = wrapped_prefix + (sort_key(low),)
            lo_pos = (
                bisect.bisect_left(self._sorted_keys, bound)
                if include_low
                else bisect.bisect_left(self._sorted_keys, bound + (_KEY_INFINITY,))
            )
        if high is None:
            hi_pos = bisect.bisect_left(
                self._sorted_keys, wrapped_prefix + (_KEY_INFINITY,)
            )
        else:
            bound = wrapped_prefix + (sort_key(high),)
            hi_pos = (
                bisect.bisect_left(self._sorted_keys, bound + (_KEY_INFINITY,))
                if include_high
                else bisect.bisect_left(self._sorted_keys, bound)
            )
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
    ) -> "Iterator[tuple[tuple, tuple | set[Any]]]":
        """Lazily yield ``(raw_key, bucket)`` entries in key order.

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
        for pos in positions:
            # Lock-free readers can race a writer shrinking the key
            # list; results are best-effort latest-state (exactly like
            # the old materializing range()) and the query layer's
            # epoch checks keep torn results out of the cache.
            try:
                wrapped = self._sorted_keys[pos]
            except IndexError:
                break
            entry = self._by_key.get(wrapped)
            if entry is not None:
                yield entry

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
        for _raw, pks in self.seek(
            prefix,
            low,
            high,
            include_low=include_low,
            include_high=include_high,
            descending=descending,
            exclude_null=exclude_null,
        ):
            yield from pks
